// exec-sharded: execution-driven EM2 runs of ocean (paper-scale, 256
// cores) and of uniform (nearly every access migrates), each in three
// legs: the sequential engine; the exact sharded engine (4 shards,
// skew 0); the relaxed engine (4 shards, skew 100).  The exec scheduler
// and the parallel engines do nearly all of the work; trace engines,
// fabric and DP do none.  Relaxed speed and relaxed error show side by
// side.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "workload/registry.hpp"

namespace e2e {
namespace {

const std::vector<std::string> kInputs = {"ocean", "uniform"};

/// Relaxed-leg quantum in cycles.
constexpr em2::Cycle kSkew = 100;

struct Leg {
  std::string label;
  std::string span;  ///< layer span of the engine run
  std::uint32_t shards;
  em2::Cycle skew;
};

const std::vector<Leg> kLegs = {
    {"sequential", "sim.exec_seq", 1, 0},
    {"exact-4", "sim.exec_exact", kShards, 0},
    {"relaxed-4-skew100", "sim.exec_relaxed", kShards, kSkew},
};

em2::RunSpec leg_spec(const Leg& leg) {
  em2::RunSpec spec{.arch = em2::MemArch::kEm2, .mode = em2::RunMode::kExec};
  spec.shards = leg.shards;
  spec.skew = leg.skew;
  return spec;
}

class ExecSharded final : public BenchWorkload {
 public:
  void setup(std::uint64_t seed, Tracer* tracer) override {
    workloads_.clear();
    for (const std::string& name : kInputs) {
      const ScopedSpan span(tracer, "workload.generate", -1);
      workloads_.push_back(
          em2::workload::make_workload(name, kCores, 1, seed));
    }
    system_ = std::make_unique<em2::System>(config());
  }

  std::vector<std::string> op_names() const override {
    std::vector<std::string> names;
    for (const std::string& w : kInputs) {
      for (const Leg& leg : kLegs) {
        names.push_back(w + "/" + leg.label);
      }
    }
    return names;
  }

  /// Legs run one at a time (each is parallel inside), so run_matrix's
  /// sweep workers would only compete with the shards for threads.
  Round run_round(Tracer* tracer) override {
    const em2::System sys(config());
    Round round;
    for (std::size_t w = 0; w < workloads_.size(); ++w) {
      for (std::size_t l = 0; l < kLegs.size(); ++l) {
        const ScopedSpan span(tracer, "api.run",
                              static_cast<int>(w * kLegs.size() + l));
        round.push_back(capture_op(
            [&] { return sys.run(workloads_[w], leg_spec(kLegs[l])); }));
      }
    }
    return round;
  }

  std::vector<Finding> check_round(const Round& round) const override {
    std::vector<Finding> out;
    for (std::size_t i = 0; i < round.size(); ++i) {
      const em2::RunReport& r = round[i].report;
      const em2::RunReport& seq = round[i - i % kLegs.size()].report;
      std::vector<std::string> msgs = {checks::exec_leg_completed(r),
                                       checks::legs_agree(seq, r)};
      if (kLegs[i % kLegs.size()].skew == 0) {
        msgs.push_back(checks::exact_equals_sequential(seq, r));
      }
      for (const std::string& msg : msgs) {
        if (!msg.empty()) {
          out.push_back({static_cast<int>(i), msg});
        }
      }
    }
    return out;
  }

  /// Mean over inputs of min(R, S) / max(R, S): relaxed-leg exec cycles R
  /// against the sequential leg's S.
  std::map<std::string, double> own_metrics(const Round& ref) override {
    double sum = 0;
    for (std::size_t w = 0; w < workloads_.size(); ++w) {
      const em2::RunReport& seq = ref[w * kLegs.size()].report;
      const em2::RunReport& relaxed = ref[w * kLegs.size() + 2].report;
      const auto s = static_cast<double>(seq.exec ? seq.exec->cycles : 0);
      const auto r =
          static_cast<double>(relaxed.exec ? relaxed.exec->cycles : 0);
      sum += std::max(s, r) > 0 ? std::min(s, r) / std::max(s, r) : 0.0;
    }
    return {{"relaxed_cycle_accuracy",
             sum / static_cast<double>(workloads_.size())}};
  }

  Round decomposed_round(Tracer* tracer, LayerValues& layer) override {
    const em2::Mesh& mesh = system_->mesh();
    const em2::CostModel& cost = system_->cost_model();
    const em2::SystemConfig cfg = config();
    Round round;
    for (std::size_t w = 0; w < workloads_.size(); ++w) {
      const em2::TraceSet& traces = workloads_[w].traces();
      const int base = static_cast<int>(w * kLegs.size());
      layer["workload.accesses"] +=
          static_cast<double>(traces.total_accesses());
      const std::unique_ptr<em2::Placement> placement =
          build_placement(tracer, base, layer, cfg,
                          em2::MemoryTraceSource(traces));
      for (std::size_t l = 0; l < kLegs.size(); ++l) {
        const Leg& leg = kLegs[l];
        const int cell = base + static_cast<int>(l);
        std::vector<em2::RProgram> programs;
        {
          const ScopedSpan span(tracer, "sim.compile", cell);
          programs = em2::workload::compile_replay_programs(traces);
        }
        const em2::RunSpec spec = leg_spec(leg);
        em2::ExecReport r;
        {
          const ScopedSpan span(tracer, leg.span, cell);
          em2::ExecParams params;
          params.arch = spec.arch;
          params.scheduler = spec.scheduler;
          params.em2 = cfg.em2;
          params.cc = cfg.cc;
          params.cc.private_cache.line_bytes = traces.block_bytes();
          params.ra_policy = spec.policy;
          params.block_bytes = traces.block_bytes();
          params.watchdog_cycles = spec.watchdog_cycles;
          params.shards = spec.shards;
          params.skew = spec.skew;
          em2::ExecSystem exec(mesh, cost, params, *placement);
          for (std::size_t t = 0; t < programs.size(); ++t) {
            exec.add_thread(std::move(programs[t]),
                            traces.thread(t).native_core());
          }
          r = exec.run(spec.max_cycles);
        }
        OpResult op;
        op.report.accesses = r.counters.get("accesses");
        op.report.migrations = r.counters.get("migrations");
        op.report.evictions = r.counters.get("evictions");
        op.report.remote_accesses = r.counters.get("remote_accesses");
        op.report.messages = r.counters.get("messages");
        op.report.exec.emplace();
        op.report.exec->cycles = r.cycles;
        op.report.exec->instructions = r.instructions;
        if (leg.skew == 0 && leg.shards == 1) {
          layer["sim.exec_cycles"] += static_cast<double>(r.cycles);
          layer["sim.exec_instructions"] +=
              static_cast<double>(r.instructions);
        }
        if (leg.skew > 0) {
          layer["sim.relaxed_cycles"] += static_cast<double>(r.cycles);
        }
        round.push_back(std::move(op));
      }
    }
    return round;
  }

 private:
  static em2::SystemConfig config() {
    em2::SystemConfig cfg;
    cfg.threads = kCores;
    return cfg;
  }

  std::vector<em2::workload::Workload> workloads_;
  std::unique_ptr<em2::System> system_;
};

}  // namespace

std::unique_ptr<BenchWorkload> make_exec_sharded(const Options& opts) {
  (void)opts;  // fixed shard count, no sweep
  return std::make_unique<ExecSharded>();
}

}  // namespace e2e
