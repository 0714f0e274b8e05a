// The paper's dynamic program: optimal migrate-vs-remote-access decisions.
//
// Section 3: "The simplified model considers one thread at a time (and so
// ignores evictions caused by migrations to a core with no free guest
// contexts), ignores local memory access delays ..., and assumes knowledge
// of the full memory trace of the application as well as the
// address-to-core data placement."
//
// Recurrence (verbatim from the paper), with OPT(m1..mk, cj) the optimal
// cost of serving the first k accesses with the thread ending at core cj:
//
//   Core miss for m_{k+1} (cj != d(m_{k+1})):  the thread stays at cj and
//     performs a remote access:
//       OPT(k+1, cj) = OPT(k, cj) + cost_remote_access(cj, d(m_{k+1}))
//
//   Core hit for m_{k+1} (cj == d(m_{k+1})):  the thread either stays (free
//     local access) or migrates in from some other core ci:
//       OPT(k+1, cj) = min( OPT(k, cj),
//                           min_{ci != cj} OPT(k, ci) + cost_migration(ci, cj) )
//
// The paper bounds this at O(N*P^2).  Observing that exactly one core (the
// access's home) is a "hit" state per step, the inner minimization is
// needed only once per access, which gives O(N*P).  The solver goes one
// step further: OPT(k, c) is finite only on the *frontier* — the start
// core plus every home among the first k accesses — because a thread
// reaches a core only by starting there or migrating to it as a home.
// Every other core stays at infinity and contributes nothing to either
// case of the recurrence, so each step sweeps the frontier alone:
// O(sum_k |frontier_k|) <= O(N*P) time and O(P + N) space — the same
// recurrence and the same schedule, tie-breaks included.  Local traces
// keep the frontier at a handful of cores; a thread that touches every
// home saturates it at P.  A relaxed-action-space variant (migration
// allowed to any core before any access) costs the full O(N*P^2) and is
// provided both as an ablation and as the literal worst-case-shape
// workload for the scaling bench.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "em2ra/policy.hpp"
#include "noc/cost_model.hpp"
#include "util/types.hpp"

namespace em2 {

/// What the optimal (or evaluated) schedule did for one access.
enum class AccessAction : std::uint8_t {
  kLocal = 0,    ///< thread was already at the home core
  kMigrate = 1,  ///< thread migrated to the home core
  kRemote = 2,   ///< thread stayed put and used remote access
};

/// One thread's model input: per-access home cores and operations.
struct ModelTrace {
  std::vector<CoreId> homes;
  std::vector<MemOp> ops;
  CoreId start = 0;  ///< thread's native core c0
};

/// A decision schedule with its model cost.
struct MigrateRaSolution {
  Cost total_cost = 0;
  std::vector<AccessAction> actions;   ///< one per access
  std::vector<CoreId> locations;       ///< thread location after each access
  std::uint64_t migrations = 0;
  std::uint64_t remote_accesses = 0;
};

/// Exact optimum of the paper's model via the recurrence above, swept
/// over the reachable frontier.  Time O(sum_k |frontier_k|) <= O(N*P),
/// space O(P + N).  Ties go to staying at the home, then to the lowest
/// core id (migration source and end state alike).
MigrateRaSolution solve_optimal_migrate_ra(const ModelTrace& trace,
                                           const CostModel& cost);

/// Relaxed action space: before each access the thread may migrate to ANY
/// core (not just the home), then serve the access locally or remotely.
/// Time O(N*P^2) — the literal complexity the paper quotes.  With metric
/// (mesh-distance) costs this never beats the paper model by more than
/// repositioning gains; the bench quantifies the (usually zero) gap.
MigrateRaSolution solve_optimal_relaxed(const ModelTrace& trace,
                                        const CostModel& cost);

/// Exhaustive search over the paper's action space (2^(#non-local
/// accesses) schedules).  Only for tests; aborts if the trace would
/// require more than ~2^24 evaluations.
MigrateRaSolution brute_force_migrate_ra(const ModelTrace& trace,
                                         const CostModel& cost);

/// Extracts a ModelTrace from per-access home cores + ops of one thread.
ModelTrace make_model_trace(std::span<const CoreId> homes,
                            std::span<const MemOp> ops, CoreId start);

}  // namespace em2
