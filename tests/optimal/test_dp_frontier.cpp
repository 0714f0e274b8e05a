// Schedule identity of the frontier DP: solve_optimal_migrate_ra sweeps
// only the cores a thread can have reached, and must return exactly the
// schedule of the dense O(N*P) sweep over every core — the same cost,
// the same per-access locations (tie-breaks included), hence the same
// actions and counts — on random and registry traces, across mesh sizes,
// under the uniform model and a contention-corrected one whose guest and
// native migration vnets differ.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "optimal/dp_migrate.hpp"
#include "placement/placement.hpp"
#include "util/rng.hpp"
#include "workload/registry.hpp"

namespace em2 {
namespace {

// The dense sweep the frontier solver replaced, kept only as the oracle:
// every core every step, infinite entries skipped, strict < in ascending
// core order (stay wins, then the lowest core id).
MigrateRaSolution dense_reference(const ModelTrace& t, const CostModel& cost) {
  const std::size_t n = t.homes.size();
  const auto P = static_cast<std::size_t>(cost.mesh().num_cores());
  std::vector<Cost> dp(P, kInfiniteCost);
  dp[static_cast<std::size_t>(t.start)] = 0;
  std::vector<CoreId> hit_choice(n, kNoCore);
  for (std::size_t k = 0; k < n; ++k) {
    const CoreId d = t.homes[k];
    const auto di = static_cast<std::size_t>(d);
    Cost best = dp[di];
    for (std::size_t c = 0; c < P; ++c) {
      if (c == di || dp[c] >= kInfiniteCost) continue;
      const Cost via =
          dp[c] + cost.migration_to(static_cast<CoreId>(c), d, t.start);
      if (via < best) {
        best = via;
        hit_choice[k] = static_cast<CoreId>(c);
      }
    }
    for (std::size_t c = 0; c < P; ++c) {
      if (c == di || dp[c] >= kInfiniteCost) continue;
      dp[c] += cost.remote_access(static_cast<CoreId>(c), d, t.ops[k]);
    }
    dp[di] = best;
  }
  MigrateRaSolution sol;
  const auto end = std::min_element(dp.begin(), dp.end()) - dp.begin();
  sol.total_cost = dp[static_cast<std::size_t>(end)];
  sol.locations.resize(n);
  auto at = static_cast<CoreId>(end);
  for (std::size_t k = n; k-- > 0;) {
    sol.locations[k] = at;
    if (at == t.homes[k] && hit_choice[k] != kNoCore) at = hit_choice[k];
  }
  CoreId prev = t.start;
  for (std::size_t k = 0; k < n; ++k) {
    const CoreId next = sol.locations[k];
    sol.actions.push_back(next != prev           ? AccessAction::kMigrate
                          : next == t.homes[k]   ? AccessAction::kLocal
                                                 : AccessAction::kRemote);
    sol.migrations += next != prev ? 1 : 0;
    sol.remote_accesses += sol.actions.back() == AccessAction::kRemote;
    prev = next;
  }
  return sol;
}

void expect_same_schedule(const ModelTrace& t, const CostModel& cost,
                          const std::string& what) {
  const MigrateRaSolution got = solve_optimal_migrate_ra(t, cost);
  const MigrateRaSolution want = dense_reference(t, cost);
  EXPECT_EQ(got.total_cost, want.total_cost) << what;
  EXPECT_EQ(got.locations, want.locations) << what;
  EXPECT_EQ(got.actions, want.actions) << what;
  EXPECT_EQ(got.migrations, want.migrations) << what;
  EXPECT_EQ(got.remote_accesses, want.remote_accesses) << what;
}

/// The uncontended model, and a corrected one with every vnet at its own
/// fractional hop latency (guest and native migration deliberately apart,
/// so picking the wrong migration table changes the cost).
std::vector<std::pair<std::string, CostModel>> models_for(
    std::int32_t cores) {
  const Mesh mesh = Mesh::near_square(cores);
  HopLatencies skewed;
  skewed.cycles = {2.6, 1.3, 1.7, 1.1, 1.0, 1.0};
  return {{"uniform", CostModel(mesh, CostModelParams{})},
          {"skewed", CostModel(mesh, CostModelParams{}, skewed)}};
}

/// Random homes; `native_bias` is the chance an access goes back to the
/// start core, so the trace keeps returning to the native-vnet table.
ModelTrace random_trace(std::int32_t cores, int length, double native_bias,
                        std::uint64_t seed) {
  Rng rng(seed);
  ModelTrace t;
  t.start = static_cast<CoreId>(
      rng.next_below(static_cast<std::uint64_t>(cores)));
  for (int i = 0; i < length; ++i) {
    t.homes.push_back(rng.next_bool(native_bias)
                          ? t.start
                          : static_cast<CoreId>(rng.next_below(
                                static_cast<std::uint64_t>(cores))));
    t.ops.push_back(rng.next_bool(0.3) ? MemOp::kWrite : MemOp::kRead);
  }
  return t;
}

class DpFrontierIdentity : public ::testing::TestWithParam<std::int32_t> {};

TEST_P(DpFrontierIdentity, RandomUniformTraces) {
  const std::int32_t cores = GetParam();
  for (const auto& [name, cost] : models_for(cores)) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      expect_same_schedule(random_trace(cores, 2'000, 0.0, seed), cost,
                           name + " seed " + std::to_string(seed));
    }
  }
}

TEST_P(DpFrontierIdentity, TracesThatReturnToTheNativeCore) {
  const std::int32_t cores = GetParam();
  for (const auto& [name, cost] : models_for(cores)) {
    for (const double bias : {0.3, 0.6, 0.9}) {
      expect_same_schedule(random_trace(cores, 2'000, bias, 17), cost,
                           name + " bias " + std::to_string(bias));
    }
  }
}

TEST_P(DpFrontierIdentity, RegistryTraces) {
  // Locality-bearing homes (first-touch placement) with a small frontier
  // (ocean) and a wide one (sharing-mix).  Eight threads spread over the
  // mesh keep the dense oracle cheap at 256 cores.
  const std::int32_t cores = GetParam();
  for (const std::string workload : {"ocean", "sharing-mix"}) {
    const TraceSet traces = *workload::make_by_name(workload, cores, 1, 1);
    const auto placement = make_placement("first-touch", traces, cores);
    const std::size_t stride =
        std::max<std::size_t>(1, traces.num_threads() / 8);
    for (std::size_t th = 0; th < traces.num_threads(); th += stride) {
      const ThreadTrace& thread = traces.thread(th);
      ModelTrace t;
      t.homes = home_sequence(thread, traces, *placement);
      for (const Access& a : thread.accesses()) {
        t.ops.push_back(a.op);
      }
      t.start = thread.native_core();
      for (const auto& [name, cost] : models_for(cores)) {
        expect_same_schedule(
            t, cost, workload + " thread " + std::to_string(th) + " " + name);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Meshes, DpFrontierIdentity,
                         ::testing::Values(4, 16, 64, 256));

}  // namespace
}  // namespace em2
