// Shows that the output checks bite: each check must accept a genuine
// input from a real (small, 16-core) run and reject the same input with
// one deliberate perturbation.  Run with `e2ebench --selftest` (or
// `python3 e2ebench/run.py --selftest`).
#include <unistd.h>

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "checks.hpp"
#include "phases.hpp"
#include "optimal/policy_eval.hpp"
#include "trace/stream/convert.hpp"
#include "workload/registry.hpp"

namespace e2e {
namespace {

constexpr std::int32_t kSmall = 16;

struct Case {
  std::string name;
  std::function<std::string()> genuine;
  std::function<std::string()> perturbed;
};

}  // namespace

int run_selftest(const std::string& out_dir) {
  using em2::MemArch;
  const em2::SystemConfig config{.threads = kSmall};
  const em2::System sys(config);
  const em2::CostModel& cost = sys.cost_model();
  const em2::workload::Workload ocean =
      em2::workload::make_workload("ocean", kSmall, 1, 7);
  const em2::TraceSet& traces = ocean.traces();

  const em2::RunReport em2_run = sys.run(ocean, {.arch = MemArch::kEm2});
  const em2::RunReport remote = sys.run(
      ocean, {.arch = MemArch::kEm2Ra, .policy = "always-remote"});
  const em2::RunReport optimal =
      sys.run(ocean, {.mode = em2::RunMode::kOptimal});
  em2::RunSpec measured{.arch = MemArch::kEm2};
  measured.contention = em2::ContentionMode::kMeasured;
  const em2::RunReport contended = sys.run(ocean, measured);
  em2::RunSpec seq_spec{.arch = MemArch::kEm2, .mode = em2::RunMode::kExec};
  em2::RunSpec exact_spec = seq_spec;
  exact_spec.shards = 4;
  em2::RunSpec relaxed_spec = exact_spec;
  relaxed_spec.skew = 100;
  const em2::RunReport seq = sys.run(ocean, seq_spec);
  const em2::RunReport exact = sys.run(ocean, exact_spec);
  const em2::RunReport relaxed = sys.run(ocean, relaxed_spec);

  // Per-thread DP and policy costs on the re-derived homes.
  const auto homes = checks::first_touch_homes(traces);
  const std::vector<std::string> policies = em2::standard_policy_specs();
  std::vector<em2::Cost> dp;
  std::vector<std::vector<em2::Cost>> policy_cost(policies.size());
  std::vector<em2::Cost> brute;
  std::vector<em2::Cost> dp_prefix;
  for (std::size_t t = 0; t < traces.num_threads(); ++t) {
    em2::ModelTrace mt;
    mt.homes = checks::thread_homes(traces, t, homes);
    for (const em2::Access& a : traces.thread(t).accesses()) {
      mt.ops.push_back(a.op);
    }
    mt.start = traces.thread(t).native_core();
    dp.push_back(em2::solve_optimal_migrate_ra(mt, cost).total_cost);
    for (std::size_t p = 0; p < policies.size(); ++p) {
      em2::StandardPolicy policy =
          em2::StandardPolicy::make(policies[p], sys.mesh(), cost);
      policy_cost[p].push_back(
          em2::evaluate_policy_model(mt, cost, policy).total_cost);
    }
    mt.homes.resize(std::min<std::size_t>(mt.homes.size(), 12));
    mt.ops.resize(mt.homes.size());
    dp_prefix.push_back(em2::solve_optimal_migrate_ra(mt, cost).total_cost);
    brute.push_back(em2::brute_force_migrate_ra(mt, cost).total_cost);
  }

  // A verbatim EM2S copy of the trace, read back under a window.
  const std::string path =
      out_dir + "/selftest-" + std::to_string(::getpid()) + ".em2s";
  if (!em2::write_trace_stream(path, traces)) {
    std::fprintf(stderr, "selftest: cannot write %s\n", path.c_str());
    return 1;
  }
  const em2::TraceStream stream(path);
  const std::uint64_t window = stream.min_stream_window() * 2;
  em2::RunSpec windowed{.arch = MemArch::kEm2};
  windowed.stream_window = window;
  const em2::RunReport streamed = sys.run(stream, windowed);
  const std::uint64_t peak = stream.peak_resident_trace_bytes();
  em2::TraceSet altered(traces.block_bytes());
  for (std::size_t t = 0; t < traces.num_threads(); ++t) {
    em2::ThreadTrace copy = traces.thread(t);
    if (t == traces.num_threads() / 2) {
      copy.append(0, em2::MemOp::kRead);  // one record more than the file
    }
    altered.add_thread(std::move(copy));
  }

  std::uint64_t total = 0;
  for (const em2::ThreadTrace& t : traces.threads()) {
    total += t.size();
  }
  const em2::Cost remote_cost =
      checks::always_remote_cost(traces, config.cost, sys.mesh().width());
  const auto with = [](em2::RunReport r, auto&& edit) {
    edit(r);
    return r;
  };

  const std::vector<Case> cases = {
      {"accesses_match", [&] { return checks::accesses_match(em2_run, total); },
       [&] { return checks::accesses_match(em2_run, total + 1); }},
      {"always_remote_matches",
       [&] { return checks::always_remote_matches(remote, remote_cost); },
       [&] {
         return checks::always_remote_matches(
             with(remote, [](em2::RunReport& r) { r.network_cost += 1; }),
             remote_cost);
       }},
      {"evictions_within_migrations",
       [&] { return checks::evictions_within_migrations(em2_run); },
       [&] {
         return checks::evictions_within_migrations(
             with(em2_run, [](em2::RunReport& r) {
               r.evictions = r.migrations + 1;
             }));
       }},
      {"dp_bounds_policies",
       [&] { return checks::dp_bounds_policies(dp, policy_cost, policies); },
       [&] {
         std::vector<em2::Cost> worse = dp;
         worse[1] = policy_cost[2][1] + 1;
         return checks::dp_bounds_policies(worse, policy_cost, policies);
       }},
      {"dp_matches_brute_force",
       [&] { return checks::dp_matches_brute_force(dp_prefix, brute); },
       [&] {
         std::vector<em2::Cost> off = brute;
         off.back() += 1;
         return checks::dp_matches_brute_force(dp_prefix, off);
       }},
      {"optimal_matches_dp_sum",
       [&] { return checks::optimal_matches_dp_sum(optimal, dp); },
       [&] {
         return checks::optimal_matches_dp_sum(
             with(optimal, [](em2::RunReport& r) { r.network_cost -= 1; }),
             dp);
       }},
      {"calibration_drained",
       [&] { return checks::calibration_drained(contended); },
       [&] {
         return checks::calibration_drained(with(contended, [](auto& r) {
           r.noc->calibration_drained = false;
         }));
       }},
      {"prediction_not_below_uncontended",
       [&] { return checks::prediction_not_below_uncontended(contended); },
       [&] {
         return checks::prediction_not_below_uncontended(
             with(contended, [](em2::RunReport& r) {
               r.noc->predicted_total_latency =
                   r.noc->uncontended_total_latency - 1;
             }));
       }},
      {"corrected_cost_not_below",
       [&] { return checks::corrected_cost_not_below(contended, em2_run); },
       [&] {
         return checks::corrected_cost_not_below(
             with(contended,
                  [&](em2::RunReport& r) {
                    r.network_cost = em2_run.network_cost - 1;
                  }),
             em2_run);
       }},
      {"exec_leg_completed", [&] { return checks::exec_leg_completed(seq); },
       [&] {
         return checks::exec_leg_completed(
             with(seq, [](em2::RunReport& r) { r.exec->timed_out = true; }));
       }},
      {"exact_equals_sequential",
       [&] { return checks::exact_equals_sequential(seq, exact); },
       [&] {
         return checks::exact_equals_sequential(
             seq, with(exact, [](em2::RunReport& r) {
               r.exec->finish_cycle.back() += 1;
             }));
       }},
      {"legs_agree", [&] { return checks::legs_agree(seq, relaxed); },
       [&] {
         return checks::legs_agree(seq, with(relaxed, [](em2::RunReport& r) {
                                     r.exec->instructions += 1;
                                   }));
       }},
      {"decoded_equals",
       [&] { return checks::decoded_equals(stream, traces); },
       [&] { return checks::decoded_equals(stream, altered); }},
      {"streamed_equals_memory",
       [&] { return checks::streamed_equals_memory(streamed, em2_run); },
       [&] {
         return checks::streamed_equals_memory(
             with(streamed, [](em2::RunReport& r) { r.migrations += 1; }),
             em2_run);
       }},
      {"within_window", [&] { return checks::within_window(peak, window); },
       [&] { return checks::within_window(peak, peak - 1); }},
      {"counter_diff (decomposed cells)",
       [&] { return counter_diff(seq, exact); },
       [&] {
         return counter_diff(seq, with(exact, [](em2::RunReport& r) {
                               r.exec->cycles += 1;
                             }));
       }},
  };

  int bad = 0;
  std::printf("%-34s %-10s %s\n", "check", "genuine", "perturbed");
  for (const Case& c : cases) {
    const std::string g = c.genuine();
    const std::string p = c.perturbed();
    const bool ok = g.empty() && !p.empty();
    bad += ok ? 0 : 1;
    std::printf("%-34s %-10s %s\n", c.name.c_str(),
                g.empty() ? "passes" : "FAILS",
                p.empty() ? "NOT REJECTED" : ("rejected: " + p).c_str());
    if (!g.empty()) {
      std::printf("    genuine input failed: %s\n", g.c_str());
    }
  }
  std::remove(path.c_str());
  std::printf("%s: %zu checks, %d not biting\n", bad == 0 ? "ok" : "FAILED",
              cases.size(), bad);
  return bad == 0 ? 0 : 1;
}

}  // namespace e2e
