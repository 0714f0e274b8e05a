#include "optimal/dp_migrate.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace em2 {
namespace {

/// Shared post-processing: given the per-access location sequence, derive
/// actions, counts, and (for verification) the schedule cost.
void finalize_from_locations(const ModelTrace& trace, const CostModel& cost,
                             MigrateRaSolution& sol) {
  const std::size_t n = trace.homes.size();
  sol.actions.resize(n);
  sol.migrations = 0;
  sol.remote_accesses = 0;
  Cost recomputed = 0;
  CoreId at = trace.start;
  for (std::size_t k = 0; k < n; ++k) {
    const CoreId home = trace.homes[k];
    const CoreId next = sol.locations[k];
    if (next == at && at == home) {
      sol.actions[k] = AccessAction::kLocal;
    } else if (next == home && next != at) {
      sol.actions[k] = AccessAction::kMigrate;
      recomputed += cost.migration_to(at, home, trace.start);
      ++sol.migrations;
    } else {
      EM2_ASSERT(next == at && at != home,
                 "inconsistent schedule: location must be the home (after "
                 "a migration) or unchanged (remote access)");
      sol.actions[k] = AccessAction::kRemote;
      recomputed += cost.remote_access(at, home, trace.ops[k]);
      ++sol.remote_accesses;
    }
    at = next;
  }
  EM2_ASSERT(recomputed == sol.total_cost,
             "schedule cost reconstruction disagrees with DP value");
}

}  // namespace

ModelTrace make_model_trace(std::span<const CoreId> homes,
                            std::span<const MemOp> ops, CoreId start) {
  EM2_ASSERT(homes.size() == ops.size(),
             "home and op sequences must have equal length");
  ModelTrace t;
  t.homes.assign(homes.begin(), homes.end());
  t.ops.assign(ops.begin(), ops.end());
  t.start = start;
  return t;
}

MigrateRaSolution solve_optimal_migrate_ra(const ModelTrace& trace,
                                           const CostModel& cost) {
  const std::size_t n = trace.homes.size();
  const Mesh& mesh = cost.mesh();
  EM2_ASSERT(trace.start >= 0 && trace.start < mesh.num_cores(),
             "start core outside the mesh");

  // The frontier: every core whose DP value is finite, i.e. the start
  // core plus every home seen so far (a thread only ever reaches a core by
  // starting there or migrating to it as a home).  Structure of arrays,
  // ascending core id, so the sweep below visits cores in the order the
  // recurrence's tie-break needs.
  std::vector<CoreId> core;
  std::vector<Cost> dp;
  std::vector<std::int32_t> xs;
  std::vector<std::int32_t> ys;
  const auto insert_at = [&](std::size_t pos, CoreId c, Cost value) {
    const Coord at = mesh.coord_of(c);
    const auto off = static_cast<std::ptrdiff_t>(pos);
    core.insert(core.begin() + off, c);
    dp.insert(dp.begin() + off, value);
    xs.insert(xs.begin() + off, at.x);
    ys.insert(ys.begin() + off, at.y);
  };
  insert_at(0, trace.start, 0);

  // Per-step choice record for the hit core: the core migrated from, or
  // kNoCore when the optimum stays at the home (covers both "was already
  // there" and reconstruction disambiguation).
  std::vector<CoreId> hit_choice(n, kNoCore);

  for (std::size_t k = 0; k < n; ++k) {
    const CoreId d = trace.homes[k];
    const std::span<const Cost> migrate =
        cost.migration_to_by_hops(d, trace.start);
    const std::span<const Cost> remote =
        cost.remote_access_by_hops(trace.ops[k]);
    const Coord home = mesh.coord_of(d);
    const std::size_t pos = static_cast<std::size_t>(
        std::lower_bound(core.begin(), core.end(), d) - core.begin());
    const bool present = pos < core.size() && core[pos] == d;

    // One fused pass over the previous step's values: the core-hit
    // minimization (stay at d for free, else migrate in from the cheapest
    // core) and the core-miss update (every core stays and pays a remote
    // access).  Strict < in ascending core order keeps the tie-break:
    // staying wins, then the lowest core id.  d's own slot cannot win
    // (dp + migrate[0] >= the stay value) and its wrongly-charged remote
    // access is overwritten below.
    Cost best = present ? dp[pos] : kInfiniteCost;
    CoreId from = kNoCore;
    const std::size_t size = core.size();
    for (std::size_t i = 0; i < size; ++i) {
      const std::int32_t dx = xs[i] - home.x;
      const std::int32_t dy = ys[i] - home.y;
      const auto h = static_cast<std::size_t>((dx < 0 ? -dx : dx) +
                                              (dy < 0 ? -dy : dy));
      const Cost via = dp[i] + migrate[h];
      const bool better = via < best;
      best = better ? via : best;
      from = better ? core[i] : from;
      dp[i] += remote[h];
    }
    if (present) {
      dp[pos] = best;
    } else {
      insert_at(pos, d, best);
    }
    hit_choice[k] = from;
  }

  // Optimal end state (lowest core id among the minima) and backward
  // reconstruction.
  MigrateRaSolution sol;
  std::size_t end = 0;
  for (std::size_t i = 1; i < core.size(); ++i) {
    if (dp[i] < dp[end]) {
      end = i;
    }
  }
  sol.total_cost = dp[end];
  EM2_ASSERT(sol.total_cost < kInfiniteCost, "no feasible schedule found");

  sol.locations.resize(n);
  CoreId at = core[end];
  for (std::size_t k = n; k-- > 0;) {
    sol.locations[k] = at;
    const CoreId d = trace.homes[k];
    if (at == d) {
      // Hit state: either stayed (previous location == d) or migrated in.
      at = hit_choice[k] == kNoCore ? d : hit_choice[k];
    }
    // Miss state: thread stayed at `at` (remote access) — unchanged.
  }
  finalize_from_locations(trace, cost, sol);
  return sol;
}

MigrateRaSolution solve_optimal_relaxed(const ModelTrace& trace,
                                        const CostModel& cost) {
  const std::size_t n = trace.homes.size();
  const auto P = static_cast<std::size_t>(cost.mesh().num_cores());

  std::vector<Cost> dp(P, kInfiniteCost);
  dp[static_cast<std::size_t>(trace.start)] = 0;
  // Backpointers: previous core for every (step, core) — O(N*P) memory,
  // acceptable for the ablation sizes this solver is used at.
  std::vector<CoreId> prev(n * P, kNoCore);

  std::vector<Cost> next(P, kInfiniteCost);
  for (std::size_t k = 0; k < n; ++k) {
    const CoreId d = trace.homes[k];
    const MemOp op = trace.ops[k];
    std::fill(next.begin(), next.end(), kInfiniteCost);
    for (std::size_t cj = 0; cj < P; ++cj) {
      // End the step at cj: arrive from any ci (possibly cj itself), then
      // serve the access locally (cj == d) or remotely (cj != d).
      const Cost serve =
          static_cast<CoreId>(cj) == d
              ? 0
              : cost.remote_access(static_cast<CoreId>(cj), d, op);
      for (std::size_t ci = 0; ci < P; ++ci) {
        if (dp[ci] >= kInfiniteCost) {
          continue;
        }
        const Cost move =
            ci == cj ? 0
                     : cost.migration_to(static_cast<CoreId>(ci),
                                         static_cast<CoreId>(cj),
                                         trace.start);
        const Cost total = dp[ci] + move + serve;
        if (total < next[cj]) {
          next[cj] = total;
          prev[k * P + cj] = static_cast<CoreId>(ci);
        }
      }
    }
    dp.swap(next);
  }

  MigrateRaSolution sol;
  std::size_t end = 0;
  for (std::size_t c = 1; c < P; ++c) {
    if (dp[c] < dp[end]) {
      end = c;
    }
  }
  sol.total_cost = dp[end];
  EM2_ASSERT(sol.total_cost < kInfiniteCost, "no feasible schedule found");

  // Reconstruct locations; note the relaxed schedule may include
  // repositioning moves, so actions/migration counts are derived from the
  // location sequence (a reposition followed by remote access is counted
  // as one migration plus one remote access).
  sol.locations.resize(n);
  CoreId at = static_cast<CoreId>(end);
  for (std::size_t k = n; k-- > 0;) {
    sol.locations[k] = at;
    at = prev[k * P + static_cast<std::size_t>(at)];
  }
  // Derive actions and counts without the strict-schedule assertion of
  // finalize_from_locations (repositioning breaks its invariant).
  const std::size_t len = trace.homes.size();
  sol.actions.resize(len);
  CoreId loc = trace.start;
  for (std::size_t k = 0; k < len; ++k) {
    const CoreId nxt = sol.locations[k];
    const CoreId home = trace.homes[k];
    if (nxt != loc) {
      ++sol.migrations;
    }
    if (nxt == home) {
      sol.actions[k] = nxt == loc ? AccessAction::kLocal
                                  : AccessAction::kMigrate;
    } else {
      sol.actions[k] = AccessAction::kRemote;
      ++sol.remote_accesses;
    }
    loc = nxt;
  }
  return sol;
}

MigrateRaSolution brute_force_migrate_ra(const ModelTrace& trace,
                                         const CostModel& cost) {
  const std::size_t n = trace.homes.size();
  // Count decision points to bound the search.
  // A decision exists only when the thread is away from the home core,
  // which depends on earlier choices; bound by n.
  EM2_ASSERT(n <= 24, "brute force limited to tiny traces");

  MigrateRaSolution best;
  best.total_cost = kInfiniteCost;
  std::vector<CoreId> locations(n, 0);

  // Depth-first over the paper's action space.
  auto rec = [&](auto&& self, std::size_t k, CoreId at, Cost so_far) -> void {
    if (so_far >= best.total_cost) {
      return;  // branch-and-bound (costs are non-negative)
    }
    if (k == n) {
      best.total_cost = so_far;
      best.locations = locations;
      return;
    }
    const CoreId d = trace.homes[k];
    if (at == d) {
      locations[k] = d;
      self(self, k + 1, d, so_far);
      return;
    }
    // Option 1: remote access, stay.
    locations[k] = at;
    self(self, k + 1, at, so_far + cost.remote_access(at, d, trace.ops[k]));
    // Option 2: migrate to the home.
    locations[k] = d;
    self(self, k + 1, d, so_far + cost.migration_to(at, d, trace.start));
  };
  rec(rec, 0, trace.start, 0);

  EM2_ASSERT(best.total_cost < kInfiniteCost, "no feasible schedule found");
  finalize_from_locations(trace, cost, best);
  return best;
}

}  // namespace em2
