#include "optimal/dp_migrate.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace em2 {
namespace {

CostModel model_for(std::int32_t cores) {
  return CostModel(Mesh::near_square(cores), CostModelParams{});
}

ModelTrace trace_of(std::vector<CoreId> homes, CoreId start,
                    std::vector<MemOp> ops = {}) {
  ModelTrace t;
  t.homes = std::move(homes);
  if (ops.empty()) {
    ops.assign(t.homes.size(), MemOp::kRead);
  }
  t.ops = std::move(ops);
  t.start = start;
  return t;
}

TEST(DpMigrate, EmptyTraceCostsZero) {
  const CostModel m = model_for(4);
  const auto sol = solve_optimal_migrate_ra(trace_of({}, 0), m);
  EXPECT_EQ(sol.total_cost, 0u);
  EXPECT_TRUE(sol.actions.empty());
}

TEST(DpMigrate, AllLocalIsFree) {
  const CostModel m = model_for(4);
  const auto sol =
      solve_optimal_migrate_ra(trace_of({0, 0, 0, 0}, 0), m);
  EXPECT_EQ(sol.total_cost, 0u);
  EXPECT_EQ(sol.migrations, 0u);
  EXPECT_EQ(sol.remote_accesses, 0u);
  for (const auto a : sol.actions) {
    EXPECT_EQ(a, AccessAction::kLocal);
  }
}

TEST(DpMigrate, SingleRemoteAccessPrefersRa) {
  // One access at a 1-hop core: RA round trip (2 cycles) beats shipping
  // a 1056-bit context (1 + 8 cycles).
  const CostModel m = model_for(4);
  const auto sol = solve_optimal_migrate_ra(trace_of({1}, 0), m);
  EXPECT_EQ(sol.actions[0], AccessAction::kRemote);
  EXPECT_EQ(sol.total_cost, m.remote_access(0, 1, MemOp::kRead));
}

TEST(DpMigrate, LongRunPrefersMigration) {
  // Ten consecutive accesses at core 1: one migration out (and the model
  // charges nothing to stay) beats ten round trips.
  const CostModel m = model_for(4);
  std::vector<CoreId> homes(10, 1);
  const auto sol = solve_optimal_migrate_ra(trace_of(homes, 0), m);
  EXPECT_EQ(sol.actions[0], AccessAction::kMigrate);
  for (std::size_t i = 1; i < sol.actions.size(); ++i) {
    EXPECT_EQ(sol.actions[i], AccessAction::kLocal);
  }
  EXPECT_EQ(sol.total_cost, m.migration(0, 1));
}

TEST(DpMigrate, SolutionCostMatchesActionReplay) {
  // finalize_from_locations() asserts this internally; double-check here
  // by manual replay.
  const CostModel m = model_for(16);
  Rng rng(3);
  std::vector<CoreId> homes;
  for (int i = 0; i < 200; ++i) {
    homes.push_back(static_cast<CoreId>(rng.next_below(16)));
  }
  const ModelTrace t = trace_of(homes, 0);
  const auto sol = solve_optimal_migrate_ra(t, m);
  Cost replay = 0;
  CoreId at = t.start;
  for (std::size_t k = 0; k < t.homes.size(); ++k) {
    switch (sol.actions[k]) {
      case AccessAction::kLocal:
        EXPECT_EQ(at, t.homes[k]);
        break;
      case AccessAction::kMigrate:
        replay += m.migration(at, t.homes[k]);
        at = t.homes[k];
        break;
      case AccessAction::kRemote:
        EXPECT_NE(at, t.homes[k]);
        replay += m.remote_access(at, t.homes[k], t.ops[k]);
        break;
    }
    EXPECT_EQ(at, sol.locations[k]);
  }
  EXPECT_EQ(replay, sol.total_cost);
}

TEST(DpMigrate, WritesUseWriteRaCost) {
  CostModelParams params;
  params.addr_bits = 512;  // make write requests clearly multi-flit
  const CostModel m(Mesh(2, 2), params);
  const auto read_sol = solve_optimal_migrate_ra(
      trace_of({1}, 0, {MemOp::kRead}), m);
  const auto write_sol = solve_optimal_migrate_ra(
      trace_of({1}, 0, {MemOp::kWrite}), m);
  if (read_sol.actions[0] == AccessAction::kRemote &&
      write_sol.actions[0] == AccessAction::kRemote) {
    EXPECT_EQ(read_sol.total_cost, m.remote_access(0, 1, MemOp::kRead));
    EXPECT_EQ(write_sol.total_cost, m.remote_access(0, 1, MemOp::kWrite));
  }
}

// The core optimality property: the DP equals exhaustive enumeration on
// random tiny instances, across meshes, ops, and seeds — under the
// uniform model and under a contention-corrected one whose per-vnet hop
// latencies all differ, so the guest-vs-native migration table choice
// (moves back to the start core ride the native vnet) is exercised.
struct DpCase {
  std::int32_t cores;
  int length;
  std::uint64_t seed;
};

class DpVsBruteForce : public ::testing::TestWithParam<DpCase> {};

void expect_dp_equals_brute_force(const DpCase& c, const HopLatencies& hop) {
  const CostModel m(Mesh::near_square(c.cores), CostModelParams{}, hop);
  Rng rng(c.seed);
  ModelTrace t;
  t.start = static_cast<CoreId>(rng.next_below(
      static_cast<std::uint64_t>(c.cores)));
  for (int i = 0; i < c.length; ++i) {
    t.homes.push_back(static_cast<CoreId>(
        rng.next_below(static_cast<std::uint64_t>(c.cores))));
    t.ops.push_back(rng.next_bool(0.3) ? MemOp::kWrite : MemOp::kRead);
  }
  const auto dp = solve_optimal_migrate_ra(t, m);
  const auto bf = brute_force_migrate_ra(t, m);
  EXPECT_EQ(dp.total_cost, bf.total_cost)
      << "cores=" << c.cores << " len=" << c.length << " seed=" << c.seed;
}

TEST_P(DpVsBruteForce, ExactlyOptimal) {
  expect_dp_equals_brute_force(GetParam(), HopLatencies::uniform(1.0));
}

TEST_P(DpVsBruteForce, ExactlyOptimalWithSkewedVnets) {
  HopLatencies hop;
  hop.cycles = {3.4, 1.2, 1.9, 1.3, 1.0, 1.0};
  const CostModel probe(Mesh(2, 1), CostModelParams{}, hop);
  ASSERT_NE(probe.migration(0, 1), probe.migration_native(0, 1));
  expect_dp_equals_brute_force(GetParam(), hop);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DpVsBruteForce,
    ::testing::Values(DpCase{2, 6, 1}, DpCase{2, 10, 2}, DpCase{4, 8, 3},
                      DpCase{4, 12, 4}, DpCase{4, 14, 5}, DpCase{6, 10, 6},
                      DpCase{9, 12, 7}, DpCase{9, 14, 8}, DpCase{16, 10, 9},
                      DpCase{16, 12, 10}, DpCase{16, 14, 11},
                      DpCase{25, 12, 12}));

// The relaxed solver can only do better (it has a strictly larger action
// space), and must agree with the DP when repositioning cannot help.
class RelaxedVsPaper : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RelaxedVsPaper, RelaxedNeverWorse) {
  const CostModel m = model_for(9);
  Rng rng(GetParam());
  ModelTrace t;
  t.start = 0;
  for (int i = 0; i < 60; ++i) {
    t.homes.push_back(static_cast<CoreId>(rng.next_below(9)));
    t.ops.push_back(MemOp::kRead);
  }
  const auto paper = solve_optimal_migrate_ra(t, m);
  const auto relaxed = solve_optimal_relaxed(t, m);
  EXPECT_LE(relaxed.total_cost, paper.total_cost);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RelaxedVsPaper,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(DpMigrate, OptimalNeverWorseThanEitherPole) {
  // Sanity: OPT <= always-migrate and OPT <= always-remote on any trace.
  const CostModel m = model_for(16);
  Rng rng(77);
  ModelTrace t;
  t.start = 0;
  for (int i = 0; i < 500; ++i) {
    t.homes.push_back(static_cast<CoreId>(rng.next_below(16)));
    t.ops.push_back(rng.next_bool(0.25) ? MemOp::kWrite : MemOp::kRead);
  }
  const auto opt = solve_optimal_migrate_ra(t, m);

  Cost always_migrate = 0;
  Cost always_remote = 0;
  CoreId at = t.start;
  for (std::size_t k = 0; k < t.homes.size(); ++k) {
    if (at != t.homes[k]) {
      always_migrate += m.migration(at, t.homes[k]);
      at = t.homes[k];
    }
  }
  for (std::size_t k = 0; k < t.homes.size(); ++k) {
    if (t.start != t.homes[k]) {
      always_remote += m.remote_access(t.start, t.homes[k], t.ops[k]);
    }
  }
  EXPECT_LE(opt.total_cost, always_migrate);
  EXPECT_LE(opt.total_cost, always_remote);
}

}  // namespace
}  // namespace em2
