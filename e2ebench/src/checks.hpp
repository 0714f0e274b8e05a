// Output checks of the benchmark.  Each check compares a report with a
// quantity computed here, apart from the program (homes, hop distances
// and packet sizes are re-derived from the inputs and CostModelParams),
// or with a property the method must have.  None compares with a stored
// copy of an earlier output.  Every check returns an empty string when it
// holds and a one-line reason when it does not; selftest.cpp feeds each
// one a perturbed input and requires the reason.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/system.hpp"
#include "trace/stream/source.hpp"

namespace e2e::checks {

/// First-touch homes re-derived from the trace: threads interleave one
/// access per live thread per round, in thread order, and the first
/// toucher's native core becomes a block's home.
std::unordered_map<em2::Addr, em2::CoreId> first_touch_homes(
    const em2::TraceSet& traces);

/// Per-access home sequence of thread `t` under `homes`.
std::vector<em2::CoreId> thread_homes(
    const em2::TraceSet& traces, std::size_t t,
    const std::unordered_map<em2::Addr, em2::CoreId>& homes);

/// Remote-access round trip (request + reply) over `hops` mesh hops on the
/// uncontended mesh, from the wormhole packet formula: each packet costs
/// hops * per_hop + flits - 1, a read sends an address and returns a
/// word, a write sends address + word and returns an empty ack.
em2::Cost remote_round_trip(const em2::CostModelParams& p, std::int64_t hops,
                            em2::MemOp op);

/// Sum over every access whose home is not its thread's native core of
/// the remote round trip from the native core (row-major mesh of `width`
/// columns) — what a never-migrating thread pays.
em2::Cost always_remote_cost(const em2::TraceSet& traces,
                             const em2::CostModelParams& p,
                             std::int32_t width);

std::string accesses_match(const em2::RunReport& r, std::uint64_t expected);
std::string always_remote_matches(const em2::RunReport& r,
                                  em2::Cost expected);
std::string evictions_within_migrations(const em2::RunReport& r);
/// dp[t] <= policy_cost[p][t] for every policy p and thread t.
std::string dp_bounds_policies(
    const std::vector<em2::Cost>& dp,
    const std::vector<std::vector<em2::Cost>>& policy_cost,
    const std::vector<std::string>& policy_names);
/// dp[i] == brute[i] for every short prefix i.
std::string dp_matches_brute_force(const std::vector<em2::Cost>& dp,
                                   const std::vector<em2::Cost>& brute);
/// The optimal cell's cost equals the per-thread DP costs summed.
std::string optimal_matches_dp_sum(const em2::RunReport& r,
                                   const std::vector<em2::Cost>& dp);

std::string calibration_drained(const em2::RunReport& r);
std::string prediction_not_below_uncontended(const em2::RunReport& r);
std::string corrected_cost_not_below(const em2::RunReport& corrected,
                                     const em2::RunReport& uncorrected);

std::string exec_leg_completed(const em2::RunReport& r);
std::string exact_equals_sequential(const em2::RunReport& seq,
                                    const em2::RunReport& exact);
std::string legs_agree(const em2::RunReport& seq,
                       const em2::RunReport& other);

/// Every record the source decodes equals `generated`, thread by thread.
std::string decoded_equals(const em2::TraceSource& source,
                           const em2::TraceSet& generated);
std::string streamed_equals_memory(const em2::RunReport& streamed,
                                   const em2::RunReport& memory);
std::string within_window(std::uint64_t peak, std::uint64_t window);

}  // namespace e2e::checks
