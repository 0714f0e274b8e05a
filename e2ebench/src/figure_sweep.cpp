// figure-sweep: the paper's figure grid — run_matrix over {ocean,
// sharing-mix} x {em2, em2+replication, em2-ra distance:4, em2-ra
// history, em2-ra always-remote, cc, optimal} at 256 cores, trace mode,
// uncontended.  The DP does most of the host work, the trace engines the
// rest; the fabric and the exec engine are never touched.
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "optimal/policy_eval.hpp"
#include "workload/registry.hpp"

namespace e2e {
namespace {

const std::vector<std::string> kInputs = {"ocean", "sharing-mix"};

std::vector<Cell> figure_cells() {
  using em2::MemArch;
  return {
      {"em2", {.arch = MemArch::kEm2}},
      {"em2+replication", {.arch = MemArch::kEm2, .replication = true}},
      {"em2-ra-distance-4", {.arch = MemArch::kEm2Ra, .policy = "distance:4"}},
      {"em2-ra-history", {.arch = MemArch::kEm2Ra, .policy = "history"}},
      {"em2-ra-always-remote",
       {.arch = MemArch::kEm2Ra, .policy = "always-remote"}},
      {"cc", {.arch = MemArch::kCc}},
      {"optimal", {.mode = em2::RunMode::kOptimal}},
  };
}

class FigureSweep final : public BenchWorkload {
 public:
  FigureSweep() {
    config_.threads = kCores;
  }

  void setup(std::uint64_t seed, Tracer* tracer) override {
    workloads_.clear();
    expected_accesses_.clear();
    for (const std::string& name : kInputs) {
      const ScopedSpan span(tracer, "workload.generate", -1);
      workloads_.push_back(
          em2::workload::make_workload(name, kCores, 1, seed));
      // Summed per-thread trace lengths, for the accesses check.
      std::uint64_t total = 0;
      for (const em2::ThreadTrace& t : workloads_.back().traces().threads()) {
        total += t.size();
      }
      expected_accesses_.push_back(total);
    }
    system_ = std::make_unique<em2::System>(config_);
  }

  std::vector<std::string> op_names() const override {
    return grid_names(kInputs, cells_);
  }

  Round run_round(Tracer* tracer) override {
    return run_grid(config_, workloads_, cells_, tracer);
  }

  std::vector<Finding> check_round(const Round& round) const override {
    std::vector<Finding> out;
    for (std::size_t i = 0; i < round.size(); ++i) {
      const em2::RunReport& r = round[i].report;
      for (const std::string& msg :
           {checks::accesses_match(r, expected_accesses_[i / cells_.size()]),
            checks::evictions_within_migrations(r)}) {
        if (!msg.empty()) {
          out.push_back({static_cast<int>(i), msg});
        }
      }
    }
    return out;
  }

  std::vector<Finding> check_outputs(const Round& ref) override {
    std::vector<Finding> out;
    const em2::CostModel& cost = system_->cost_model();
    const std::vector<std::string> policies = em2::standard_policy_specs();
    for (std::size_t w = 0; w < workloads_.size(); ++w) {
      const em2::TraceSet& traces = workloads_[w].traces();
      const int base = static_cast<int>(w * cells_.size());
      const int remote_op = base + cell_index("em2-ra-always-remote");
      const int optimal_op = base + cell_index("optimal");
      const auto add = [&](int op, const std::string& msg) {
        if (!msg.empty()) {
          out.push_back({op, msg});
        }
      };
      add(remote_op,
          checks::always_remote_matches(
              ref[static_cast<std::size_t>(remote_op)].report,
              checks::always_remote_cost(traces, config_.cost,
                                         system_->mesh().width())));

      // Per-thread DP against every standard policy on model traces built
      // from the re-derived homes, plus brute force on short prefixes.
      const auto homes = checks::first_touch_homes(traces);
      std::vector<em2::Cost> dp;
      std::vector<std::vector<em2::Cost>> policy_cost(policies.size());
      std::vector<em2::Cost> dp_prefix;
      std::vector<em2::Cost> brute_prefix;
      for (std::size_t t = 0; t < traces.num_threads(); ++t) {
        const em2::ThreadTrace& thread = traces.thread(t);
        em2::ModelTrace mt;
        mt.homes = checks::thread_homes(traces, t, homes);
        for (const em2::Access& a : thread.accesses()) {
          mt.ops.push_back(a.op);
        }
        mt.start = thread.native_core();
        dp.push_back(em2::solve_optimal_migrate_ra(mt, cost).total_cost);
        for (std::size_t p = 0; p < policies.size(); ++p) {
          em2::StandardPolicy policy =
              em2::StandardPolicy::make(policies[p], system_->mesh(), cost);
          policy_cost[p].push_back(
              em2::evaluate_policy_model(mt, cost, policy).total_cost);
        }
        if (t % kBruteStride == 0) {
          const std::size_t n = std::min(mt.homes.size(), kBrutePrefix);
          em2::ModelTrace prefix;
          prefix.homes.assign(mt.homes.begin(),
                              mt.homes.begin() + static_cast<long>(n));
          prefix.ops.assign(mt.ops.begin(),
                            mt.ops.begin() + static_cast<long>(n));
          prefix.start = mt.start;
          dp_prefix.push_back(
              em2::solve_optimal_migrate_ra(prefix, cost).total_cost);
          brute_prefix.push_back(
              em2::brute_force_migrate_ra(prefix, cost).total_cost);
        }
      }
      add(optimal_op, checks::dp_bounds_policies(dp, policy_cost, policies));
      add(optimal_op, checks::dp_matches_brute_force(dp_prefix, brute_prefix));
      add(optimal_op,
          checks::optimal_matches_dp_sum(
              ref[static_cast<std::size_t>(optimal_op)].report, dp));
    }
    return out;
  }

  Round decomposed_round(Tracer* tracer, LayerValues& layer) override {
    const em2::Mesh& mesh = system_->mesh();
    const em2::CostModel& cost = system_->cost_model();
    const std::vector<std::string> policies = em2::standard_policy_specs();
    Round round;
    for (std::size_t w = 0; w < workloads_.size(); ++w) {
      const em2::TraceSet& traces = workloads_[w].traces();
      const int base = static_cast<int>(w * cells_.size());
      layer["workload.accesses"] +=
          static_cast<double>(traces.total_accesses());
      const std::unique_ptr<em2::Placement> placement =
          build_placement(tracer, base, layer, config_,
                          em2::MemoryTraceSource(traces));
      std::vector<em2::ModelTrace> model_traces;
      for (std::size_t s = 0; s < cells_.size(); ++s) {
        const em2::RunSpec& spec = cells_[s].spec;
        const int cell = base + static_cast<int>(s);
        OpResult op;
        em2::RunReport& out = op.report;
        if (spec.mode == em2::RunMode::kOptimal) {
          out.accesses = traces.total_accesses();
          for (const em2::ThreadTrace& thread : traces.threads()) {
            em2::ModelTrace mt;
            {
              const ScopedSpan span(tracer, "optimal.model_trace", cell);
              const std::vector<em2::CoreId> homes =
                  em2::home_sequence(thread, traces, *placement);
              std::vector<em2::MemOp> ops;
              ops.reserve(thread.size());
              for (const em2::Access& a : thread.accesses()) {
                ops.push_back(a.op);
              }
              mt = em2::make_model_trace(homes, ops, thread.native_core());
            }
            const ScopedSpan span(tracer, "optimal.dp", cell);
            const em2::MigrateRaSolution sol =
                em2::solve_optimal_migrate_ra(mt, cost);
            out.network_cost += sol.total_cost;
            out.migrations += sol.migrations;
            out.remote_accesses += sol.remote_accesses;
            model_traces.push_back(std::move(mt));
          }
          layer["optimal.dp_steps"] +=
              static_cast<double>(traces.total_accesses()) * kCores;
        } else {
          out = run_engine(tracer, cell, layer, spec, config_,
                           em2::MemoryTraceSource(traces), *placement, mesh,
                           cost);
        }
        round.push_back(std::move(op));
      }
      // The output checks' policy evaluation, timed on the program's own
      // model traces (not part of any System::run cell).
      const ScopedSpan span(tracer, "optimal.policy_eval", -1);
      for (const em2::ModelTrace& mt : model_traces) {
        for (const std::string& spec : policies) {
          em2::StandardPolicy policy =
              em2::StandardPolicy::make(spec, mesh, cost);
          (void)em2::evaluate_policy_model(mt, cost, policy);
        }
      }
    }
    return round;
  }

 private:
  /// Brute force covers every kBruteStride-th thread's first kBrutePrefix
  /// accesses (2^prefix schedules at worst).
  static constexpr std::size_t kBruteStride = 8;
  static constexpr std::size_t kBrutePrefix = 16;

  int cell_index(const std::string& label) const {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      if (cells_[i].label == label) {
        return static_cast<int>(i);
      }
    }
    return -1;
  }

  em2::SystemConfig config_;
  std::vector<Cell> cells_ = figure_cells();
  std::vector<em2::workload::Workload> workloads_;
  std::vector<std::uint64_t> expected_accesses_;
  std::unique_ptr<em2::System> system_;
};

}  // namespace

std::unique_ptr<BenchWorkload> make_figure_sweep(const Options& opts) {
  (void)opts;  // nothing to configure
  return std::make_unique<FigureSweep>();
}

}  // namespace e2e
