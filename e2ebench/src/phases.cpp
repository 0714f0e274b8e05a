// The benchmark's phases, shared by every workload.
//
// Untraced run (--trace=0), which gives the end-to-end metrics:
//   1. set-up, repeated at least 5 times (median -> setup_s);
//   2. one reference round, outside the measured phase;
//   3. the measured phase: whole rounds until --seconds have passed, each
//      operation timed on its own; sim_accesses_per_s is a round's
//      accesses over the sum of each operation's fastest time (plus the
//      round's fastest time outside its operations).  README.md, "Spread":
//      a shared host's speed swings by up to 2x for seconds to minutes,
//      and a per-operation best needs only each operation, not a whole
//      round, to meet a fast stretch;
//   4. peak resident memory, read before anything else allocates;
//   5. the output checks on the reference round.
// An operation fails when it throws, when its report differs from the
// reference round's (the simulator is deterministic), or when a check
// fails on it.  Checks of the whole run decide `correct`.
//
// Traced run (--trace=1), which gives the per-layer metrics: rounds of
// (a) the same cells one System::run at a time, each in an api.run span,
// then (b) the decomposed cells through the layers' public functions,
// with a span around each call, and once more without spans; (b) must
// reproduce (a)'s counters.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "bench.hpp"
#include "phases.hpp"

namespace e2e {
namespace {

/// Set-up runs at least kSetupMinRepeats times and, while it has taken
/// less than kSetupSeconds in all, again, up to kSetupMaxRepeats times;
/// setup_s is the median.
constexpr std::size_t kSetupMinRepeats = 5;
constexpr std::size_t kSetupMaxRepeats = 50;
constexpr double kSetupSeconds = 1.5;

/// Reported for an end-to-end metric on a workload that does not exercise
/// it (the output carries every metric on every run; none may read 0).
constexpr double kNotExercised = 1.0;

struct MetricDef {
  std::string name;
  std::string unit;
};

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"sim_accesses_per_s", "accesses/s"},
    {"peak_rss_mib", "MiB"},
    {"noc_model_accuracy", "ratio"},
    {"relaxed_cycle_accuracy", "ratio"},
    {"trace_bytes_per_access", "B/access"},
};

std::vector<MetricDef> layer_metrics() {
  std::vector<MetricDef> m = {
      {"workload.generate_s", "s"},
      {"workload.accesses", "count"},
      {"placement.build_s", "s"},
      {"placement.blocks", "count"},
      {"em2.run_s", "s"},
      {"em2.accesses_per_s", "accesses/s"},
      {"em2.migrations", "count"},
      {"em2.evictions", "count"},
      {"em2ra.run_s", "s"},
      {"em2ra.accesses_per_s", "accesses/s"},
      {"em2ra.migrations", "count"},
      {"em2ra.remote_accesses", "count"},
  };
  for (const char* policy : {"distance-4", "history", "always-remote"}) {
    const std::string p = std::string("em2ra.") + policy;
    m.push_back({p + ".run_s", "s"});
    m.push_back({p + ".accesses_per_s", "accesses/s"});
    m.push_back({p + ".migrations", "count"});
    m.push_back({p + ".remote_accesses", "count"});
  }
  const std::vector<MetricDef> rest = {
      {"coherence.run_s", "s"},
      {"coherence.messages", "count"},
      {"optimal.model_trace_s", "s"},
      {"optimal.dp_s", "s"},
      {"optimal.dp_steps_per_s", "steps/s"},
      {"optimal.policy_eval_s", "s"},
      {"noc.capture_s", "s"},
      {"noc.packets", "count"},
      {"noc.replay_s", "s"},
      {"noc.replay_cycles", "cycles"},
      {"noc.replay_cycles_per_s", "cycles/s"},
      {"noc.correct_s", "s"},
      {"noc.corrected_run_s", "s"},
      {"trace.encode_s", "s"},
      {"trace.encode_em2z_s", "s"},
      {"trace.decode_s", "s"},
      {"trace.decode_em2z_s", "s"},
      {"trace.bytes_per_access", "B/access"},
      {"trace.peak_resident_bytes", "B"},
      {"sim.compile_s", "s"},
      {"sim.exec_seq_s", "s"},
      {"sim.exec_exact_s", "s"},
      {"sim.exec_relaxed_s", "s"},
      {"sim.exec_cycles", "cycles"},
      {"sim.relaxed_cycles", "cycles"},
      {"sim.exec_instructions", "count"},
      {"sim.exact_speedup", "ratio"},
      {"sim.relaxed_speedup", "ratio"},
      {"api.run_s", "s"},
      {"api.self_s", "s"},
      {"bench.tracing_overhead_s", "s"},
      {"bench.tracing_overhead_ratio", "ratio"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double peak_rss_mib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t round_accesses(const Round& round) {
  std::uint64_t n = 0;
  for (const OpResult& op : round) {
    if (op.error.empty()) {
      n += op.report.accesses;
    }
  }
  return n;
}

/// Per-operation failure of one round against the reference round.
std::vector<std::string> round_failures(const BenchWorkload& wl,
                                        const Round& round,
                                        const Round& ref) {
  std::vector<std::string> fail(ref.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (i >= round.size()) {
      fail[i] = "operation missing";
    } else if (!round[i].error.empty()) {
      fail[i] = "threw: " + round[i].error;
    } else {
      const std::string d = report_diff(round[i].report, ref[i].report);
      if (!d.empty()) {
        fail[i] = "differs from the reference round: " + d;
      }
    }
  }
  for (const Finding& f : wl.check_round(round)) {
    if (f.op >= 0 && fail[static_cast<std::size_t>(f.op)].empty()) {
      fail[static_cast<std::size_t>(f.op)] = f.message;
    }
  }
  return fail;
}

/// Tallies of the measured rounds plus the verdict of the output checks.
struct Accounting {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  /// First reason each operation failed, for the log.
  std::map<std::size_t, std::string> reasons;

  void add_round(const std::vector<std::string>& fail,
                 const std::set<std::size_t>& failed_by_checks) {
    attempted += fail.size();
    for (std::size_t i = 0; i < fail.size(); ++i) {
      if (!fail[i].empty() || failed_by_checks.count(i) != 0) {
        ++failed;
        if (!fail[i].empty()) {
          reasons.try_emplace(i, fail[i]);
        }
      }
    }
  }
};

/// Runs the reference round's output checks: findings on an operation
/// fail it in every round (rounds equal the reference or fail anyway);
/// whole-run findings make the run incorrect.
std::set<std::size_t> apply_output_checks(BenchWorkload& wl,
                                          const Round& ref,
                                          Accounting& acct) {
  std::set<std::size_t> failed_ops;
  for (const Finding& f : wl.check_outputs(ref)) {
    if (f.op == Finding::kWholeRun) {
      acct.correct = false;
      std::fprintf(stderr, "e2ebench: check failed: %s\n",
                   f.message.c_str());
    } else {
      failed_ops.insert(static_cast<std::size_t>(f.op));
      acct.reasons.try_emplace(static_cast<std::size_t>(f.op), f.message);
    }
  }
  return failed_ops;
}

void print_result(const Accounting& acct,
                  const std::vector<std::string>& op_names,
                  const std::vector<MetricDef>& defs,
                  const std::map<std::string, double>& values) {
  for (const auto& [op, reason] : acct.reasons) {
    std::fprintf(stderr, "e2ebench: operation %s failed: %s\n",
                 op_names[op].c_str(), reason.c_str());
  }
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    std::printf("%-34s %18.6g %s\n", d.name.c_str(),
                it != values.end() ? it->second : 0.0, d.unit.c_str());
  }
  std::printf("%-34s %18llu\n%-34s %18llu\n", "attempted",
              static_cast<unsigned long long>(acct.attempted), "failed",
              static_cast<unsigned long long>(acct.failed));
  std::string json = std::string("{\"correct\": ") +
                     (acct.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(acct.attempted) +
                     ", \"failed\": " + std::to_string(acct.failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    const auto it = values.find(d.name);
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", d.name.c_str(),
                  it != values.end() ? it->second : 0.0, d.unit.c_str());
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

int run_untraced(BenchWorkload& wl, const Options& opts) {
  std::vector<double> setup_times;
  const Clock::time_point setup_start = Clock::now();
  while (setup_times.size() < kSetupMinRepeats ||
         (setup_times.size() < kSetupMaxRepeats &&
          seconds_since(setup_start) < kSetupSeconds)) {
    const Clock::time_point t0 = Clock::now();
    wl.setup(opts.seed, nullptr);
    setup_times.push_back(seconds_since(t0));
  }
  const std::vector<std::string> names = wl.op_names();
  const Round ref = wl.run_round(nullptr);

  // best[i] is operation i's fastest time over the measured rounds; the
  // last slot holds the round's time outside its operations.
  std::vector<std::vector<std::string>> failures;
  std::vector<double> best(ref.size() + 1, -1.0);
  const auto keep_best = [&](std::size_t i, double secs) {
    if (best[i] < 0 || secs < best[i]) {
      best[i] = secs;
    }
  };
  const Clock::time_point start = Clock::now();
  while (failures.empty() || seconds_since(start) < opts.seconds) {
    const Clock::time_point t0 = Clock::now();
    const Round round = wl.run_round(nullptr);
    double outside = seconds_since(t0);
    for (std::size_t i = 0; i < round.size() && i < ref.size(); ++i) {
      keep_best(i, round[i].seconds);
      outside -= round[i].seconds;
    }
    keep_best(ref.size(), std::max(outside, 0.0));
    failures.push_back(round_failures(wl, round, ref));
  }
  const double rss = peak_rss_mib();

  Accounting acct;
  const std::set<std::size_t> failed_ops =
      apply_output_checks(wl, ref, acct);
  for (const std::vector<std::string>& f : failures) {
    acct.add_round(f, failed_ops);
  }
  std::map<std::string, double> values = {
      {"noc_model_accuracy", kNotExercised},
      {"relaxed_cycle_accuracy", kNotExercised},
      {"trace_bytes_per_access", kNotExercised},
  };
  for (const auto& [name, value] : wl.own_metrics(ref)) {
    values[name] = value;
  }
  values["setup_s"] = median(setup_times);
  double best_round = 0;
  for (const double secs : best) {
    best_round += secs;
  }
  values["sim_accesses_per_s"] =
      static_cast<double>(round_accesses(ref)) / best_round;
  values["peak_rss_mib"] = rss;
  std::printf("workload %s  seed %llu  rounds %zu  (%zu operations each)\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), failures.size(),
              names.size());
  print_result(acct, names, kEndToEnd, values);
  return 0;
}

/// Per-layer numbers derived from a traced round's span times and counts.
void derive_rates(LayerValues& layer) {
  const auto ratio = [&](const std::string& out, const std::string& num,
                         const std::string& den) {
    if (layer.count(num) != 0 && layer[den] > 0) {
      layer[out] = layer[num] / layer[den];
    }
  };
  std::vector<std::string> engines;
  for (const auto& [name, value] : layer) {
    if (name.ends_with(".accesses") && name != "workload.accesses") {
      engines.push_back(name.substr(0, name.size() - 9));
    }
  }
  for (const std::string& e : engines) {
    ratio(e + ".accesses_per_s", e + ".accesses", e + ".run_s");
  }
  ratio("optimal.dp_steps_per_s", "optimal.dp_steps", "optimal.dp_s");
  ratio("noc.replay_cycles_per_s", "noc.replay_cycles", "noc.replay_s");
  ratio("sim.exact_speedup", "sim.exec_seq_s", "sim.exec_exact_s");
  ratio("sim.relaxed_speedup", "sim.exec_seq_s", "sim.exec_relaxed_s");
}

int run_traced(BenchWorkload& wl, const Options& opts) {
  Tracer tracer;
  tracer.set_round(0);
  wl.setup(opts.seed, &tracer);
  std::map<std::string, std::vector<double>> per_round = {
      {"workload.generate_s", {tracer.total("workload.generate", 0)}},
      {"trace.encode_s", {tracer.total("trace.encode", 0)}},
      {"trace.encode_em2z_s", {tracer.total("trace.encode_em2z", 0)}},
  };
  const std::vector<std::string> names = wl.op_names();

  Accounting acct;
  std::vector<std::vector<std::string>> failures;
  std::map<std::string, std::vector<double>> self_per_round;
  Round ref;
  const Clock::time_point start = Clock::now();
  for (int r = 1; r == 1 || seconds_since(start) < opts.seconds; ++r) {
    tracer.set_round(r);
    // (a) System::run per cell.
    const Round api = wl.run_round(&tracer);
    if (r == 1) {
      ref = api;
    }
    failures.push_back(round_failures(wl, api, ref));
    // (b) the decomposed cells, traced and untraced (alternating which
    // goes first); their difference is the tracing overhead.
    LayerValues layer;
    LayerValues discarded;
    double traced = 0;
    double untraced = 0;
    Round decomposed;
    for (int pass = 0; pass < 2; ++pass) {
      const bool with_spans = (pass == 0) == (r % 2 == 1);
      const Clock::time_point t0 = Clock::now();
      Round out = wl.decomposed_round(with_spans ? &tracer : nullptr,
                                      with_spans ? layer : discarded);
      (with_spans ? traced : untraced) = seconds_since(t0);
      if (with_spans) {
        decomposed = std::move(out);
      }
    }
    for (std::size_t i = 0; i < api.size() && i < decomposed.size(); ++i) {
      const std::string d = counter_diff(api[i].report, decomposed[i].report);
      if (!d.empty() && api[i].error.empty()) {
        acct.correct = false;
        std::fprintf(stderr,
                     "e2ebench: decomposed %s does not reproduce "
                     "System::run: %s\n",
                     names[i].c_str(), d.c_str());
      }
    }
    // Each span name's total is its layer time ("em2.run" -> em2.run_s).
    // Top-level spans of the decomposed cells cover what (a)'s api.run
    // spans cover, less System's own work: the difference is api.self_s.
    std::set<std::string> span_names;
    double decomposed_cells = 0;
    for (const Tracer::Span& s : tracer.spans()) {
      if (s.round != r || s.end_ns < 0 || s.name == "api.run") {
        continue;
      }
      span_names.insert(s.name);
      if (s.parent < 0 && s.cell >= 0) {
        decomposed_cells +=
            static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      }
    }
    for (const std::string& name : span_names) {
      layer[name + "_s"] = tracer.total(name, r);
    }
    layer["api.run_s"] = tracer.total("api.run", r);
    layer["api.self_s"] = layer["api.run_s"] - decomposed_cells;
    layer["bench.tracing_overhead_s"] = traced - untraced;
    layer["bench.tracing_overhead_ratio"] = traced / untraced - 1.0;
    derive_rates(layer);
    for (const auto& [name, value] : layer) {
      per_round[name].push_back(value);
    }
    // The api layer's self time is System::run's own share (api.self_s);
    // its spans enclose no layer spans, which run in the decomposed pass.
    for (const auto& [layer_name, self] : tracer.self_by_layer(r)) {
      self_per_round[layer_name].push_back(
          layer_name == "api" ? layer["api.self_s"] : self);
    }
  }
  const std::set<std::size_t> failed_ops =
      apply_output_checks(wl, ref, acct);
  for (const std::vector<std::string>& f : failures) {
    acct.add_round(f, failed_ops);
  }

  const std::string trace_path = opts.out_dir + "/trace-" + opts.workload +
                                 "-seed" + std::to_string(opts.seed) +
                                 ".json";
  if (!tracer.write_chrome_json(trace_path)) {
    std::fprintf(stderr, "e2ebench: cannot write %s\n", trace_path.c_str());
    acct.correct = false;
  }
  std::printf("workload %s  seed %llu  traced rounds %zu  spans -> %s\n",
              opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), failures.size(),
              trace_path.c_str());
  std::printf("%-12s %14s   (median over rounds, host seconds)\n", "layer",
              "self_s");
  for (const auto& [layer_name, v] : self_per_round) {
    std::printf("%-12s %14.6f\n", layer_name.c_str(), median(v));
  }
  std::map<std::string, double> values;
  for (const auto& [name, v] : per_round) {
    values[name] = median(v);
  }
  print_result(acct, names, layer_metrics(), values);
  return 0;
}

}  // namespace

int run_benchmark(const Options& opts) {
  std::unique_ptr<BenchWorkload> wl = make_workload(opts);
  if (!wl) {
    std::fprintf(stderr, "e2ebench: unknown workload '%s'\n",
                 opts.workload.c_str());
    return 2;
  }
  return opts.trace ? run_traced(*wl, opts) : run_untraced(*wl, opts);
}

}  // namespace e2e
