// The benchmark's two workloads, each a sequence of parts run in one
// process and one round:
//
//   figure-replay   figure-sweep, then trace-replay
//   contended-exec  contended-sweep, then exec-sharded
//
// Two workloads rather than four let each run measure for longer within
// the same total time, which the shared host's slow swings call for
// (README.md, "Spread"); every layer is still measured on one of them.
// A part's operations, checks and metrics are its own; the composite
// concatenates the operations and offsets the checks' operation indices.
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "phases.hpp"

namespace e2e {
namespace {

class Composite final : public BenchWorkload {
 public:
  struct Part {
    std::string name;
    std::unique_ptr<BenchWorkload> workload;
    std::size_t first_op = 0;
    std::size_t num_ops = 0;
  };

  explicit Composite(std::vector<Part> parts) : parts_(std::move(parts)) {
    std::size_t next = 0;
    for (Part& p : parts_) {
      p.first_op = next;
      p.num_ops = p.workload->op_names().size();
      next += p.num_ops;
    }
  }

  void setup(std::uint64_t seed, Tracer* tracer) override {
    for (Part& p : parts_) {
      p.workload->setup(seed, tracer);
    }
  }

  std::vector<std::string> op_names() const override {
    std::vector<std::string> names;
    for (const Part& p : parts_) {
      for (const std::string& op : p.workload->op_names()) {
        names.push_back(p.name + ":" + op);
      }
    }
    return names;
  }

  Round run_round(Tracer* tracer) override {
    Round round;
    for (Part& p : parts_) {
      set_cell_base(tracer, p);
      append(round, p.workload->run_round(tracer));
    }
    set_cell_base(tracer, 0);
    return round;
  }

  std::vector<Finding> check_round(const Round& round) const override {
    std::vector<Finding> out;
    for (const Part& p : parts_) {
      append_findings(out, p, p.workload->check_round(slice(round, p)));
    }
    return out;
  }

  std::vector<Finding> check_outputs(const Round& ref) override {
    std::vector<Finding> out;
    for (Part& p : parts_) {
      append_findings(out, p, p.workload->check_outputs(slice(ref, p)));
    }
    return out;
  }

  std::map<std::string, double> own_metrics(const Round& ref) override {
    std::map<std::string, double> out;
    for (Part& p : parts_) {
      for (const auto& [name, value] :
           p.workload->own_metrics(slice(ref, p))) {
        out[name] = value;
      }
    }
    return out;
  }

  Round decomposed_round(Tracer* tracer, LayerValues& layer) override {
    Round round;
    for (Part& p : parts_) {
      set_cell_base(tracer, p);
      append(round, p.workload->decomposed_round(tracer, layer));
    }
    set_cell_base(tracer, 0);
    return round;
  }

 private:
  static void set_cell_base(Tracer* tracer, const Part& p) {
    set_cell_base(tracer, static_cast<int>(p.first_op));
  }
  static void set_cell_base(Tracer* tracer, int base) {
    if (tracer != nullptr) {
      tracer->set_cell_base(base);
    }
  }

  static void append(Round& round, Round part) {
    for (OpResult& op : part) {
      round.push_back(std::move(op));
    }
  }

  /// The part's operations of a whole round (missing ones stay default).
  static Round slice(const Round& round, const Part& p) {
    Round out(p.num_ops);
    for (std::size_t i = 0; i < p.num_ops && p.first_op + i < round.size();
         ++i) {
      out[i] = round[p.first_op + i];
    }
    return out;
  }

  static void append_findings(std::vector<Finding>& out, const Part& p,
                              std::vector<Finding> found) {
    for (Finding& f : found) {
      if (f.op != Finding::kWholeRun) {
        f.op += static_cast<int>(p.first_op);
      }
      out.push_back(std::move(f));
    }
  }

  std::vector<Part> parts_;
};

}  // namespace

std::unique_ptr<BenchWorkload> make_workload(const Options& opts) {
  std::vector<Composite::Part> parts;
  if (opts.workload == "figure-replay") {
    parts.push_back({"figure-sweep", make_figure_sweep(opts)});
    parts.push_back({"trace-replay", make_trace_replay(opts)});
  } else if (opts.workload == "contended-exec") {
    parts.push_back({"contended-sweep", make_contended_sweep(opts)});
    parts.push_back({"exec-sharded", make_exec_sharded(opts)});
  } else {
    return nullptr;
  }
  return std::make_unique<Composite>(std::move(parts));
}

}  // namespace e2e
