// e2ebench: one workload of the end-to-end benchmark per process.
//
//   e2ebench --workload=NAME --seed=N --seconds=S --trace=0|1 --out-dir=DIR
//   e2ebench --selftest
//
// Normally started by run.py, which builds this binary and runs each
// workload in a process of its own.  The last line of standard output is
// the JSON result.
#include <cstdio>
#include <exception>
#include <string>

#include "phases.hpp"
#include "util/args.hpp"

int main(int argc, char** argv) {
  const em2::Args args(argc, argv);
  if (args.has("selftest")) {
    return e2e::run_selftest(args.get_string("out-dir", "."));
  }
  e2e::Options opts;
  opts.workload = args.get_string("workload", "");
  opts.seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  opts.seconds = args.get_double("seconds", 10.0);
  opts.trace = args.get_int("trace", 0) != 0;
  opts.out_dir = args.get_string("out-dir", ".");
  if (!args.errors().empty()) {
    for (const std::string& e : args.errors()) {
      std::fprintf(stderr, "e2ebench: %s\n", e.c_str());
    }
    return 2;
  }
  try {
    return e2e::run_benchmark(opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2ebench: %s\n", e.what());
    return 1;
  }
}
