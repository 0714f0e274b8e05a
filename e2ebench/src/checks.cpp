#include "checks.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>

#include "bench.hpp"

namespace e2e::checks {

namespace {

std::string mismatch(const char* what, std::uint64_t got,
                     std::uint64_t want) {
  return std::string(what) + ": " + std::to_string(got) +
         " != " + std::to_string(want);
}

std::uint64_t flits(const em2::CostModelParams& p, std::uint64_t payload) {
  const std::uint64_t bits = payload + p.header_bits;
  return std::max<std::uint64_t>(
      1, (bits + p.link_width_bits - 1) / p.link_width_bits);
}

}  // namespace

std::unordered_map<em2::Addr, em2::CoreId> first_touch_homes(
    const em2::TraceSet& traces) {
  std::unordered_map<em2::Addr, em2::CoreId> homes;
  const int shift = __builtin_ctz(traces.block_bytes());
  std::size_t longest = 0;
  for (const em2::ThreadTrace& t : traces.threads()) {
    longest = std::max(longest, t.size());
  }
  for (std::size_t i = 0; i < longest; ++i) {
    for (const em2::ThreadTrace& t : traces.threads()) {
      if (i < t.size()) {
        homes.try_emplace(t[i].addr >> shift, t.native_core());
      }
    }
  }
  return homes;
}

std::vector<em2::CoreId> thread_homes(
    const em2::TraceSet& traces, std::size_t t,
    const std::unordered_map<em2::Addr, em2::CoreId>& homes) {
  const int shift = __builtin_ctz(traces.block_bytes());
  std::vector<em2::CoreId> out;
  out.reserve(traces.thread(t).size());
  for (const em2::Access& a : traces.thread(t).accesses()) {
    out.push_back(homes.at(a.addr >> shift));
  }
  return out;
}

em2::Cost remote_round_trip(const em2::CostModelParams& p, std::int64_t hops,
                            em2::MemOp op) {
  const auto packet = [&](std::uint64_t payload) {
    return static_cast<em2::Cost>(hops) * p.per_hop_cycles +
           (flits(p, payload) - 1);
  };
  return op == em2::MemOp::kRead
             ? packet(p.addr_bits) + packet(p.word_bits)
             : packet(p.addr_bits + p.word_bits) + packet(0);
}

em2::Cost always_remote_cost(const em2::TraceSet& traces,
                             const em2::CostModelParams& p,
                             std::int32_t width) {
  const auto homes = first_touch_homes(traces);
  em2::Cost total = 0;
  for (std::size_t t = 0; t < traces.num_threads(); ++t) {
    const em2::CoreId native = traces.thread(t).native_core();
    const std::vector<em2::CoreId> seq = thread_homes(traces, t, homes);
    for (std::size_t i = 0; i < seq.size(); ++i) {
      if (seq[i] == native) {
        continue;
      }
      const std::int64_t hops = std::abs(seq[i] % width - native % width) +
                                std::abs(seq[i] / width - native / width);
      total += remote_round_trip(p, hops, traces.thread(t)[i].op);
    }
  }
  return total;
}

std::string accesses_match(const em2::RunReport& r, std::uint64_t expected) {
  return r.accesses == expected
             ? ""
             : mismatch("accesses vs summed trace lengths", r.accesses,
                        expected);
}

std::string always_remote_matches(const em2::RunReport& r,
                                  em2::Cost expected) {
  return r.network_cost == expected
             ? ""
             : mismatch("always-remote network_cost vs summed round trips",
                        r.network_cost, expected);
}

std::string evictions_within_migrations(const em2::RunReport& r) {
  return r.evictions <= r.migrations
             ? ""
             : "evictions " + std::to_string(r.evictions) +
                   " exceed migrations " + std::to_string(r.migrations);
}

std::string dp_bounds_policies(
    const std::vector<em2::Cost>& dp,
    const std::vector<std::vector<em2::Cost>>& policy_cost,
    const std::vector<std::string>& policy_names) {
  for (std::size_t p = 0; p < policy_cost.size(); ++p) {
    if (policy_cost[p].size() != dp.size()) {
      return "policy " + policy_names[p] + " evaluated " +
             std::to_string(policy_cost[p].size()) + " threads, DP " +
             std::to_string(dp.size());
    }
    for (std::size_t t = 0; t < dp.size(); ++t) {
      if (dp[t] > policy_cost[p][t]) {
        return "thread " + std::to_string(t) + ": DP " +
               std::to_string(dp[t]) + " above " + policy_names[p] + " " +
               std::to_string(policy_cost[p][t]);
      }
    }
  }
  return "";
}

std::string dp_matches_brute_force(const std::vector<em2::Cost>& dp,
                                   const std::vector<em2::Cost>& brute) {
  if (dp.size() != brute.size() || dp.empty()) {
    return "no prefixes compared";
  }
  for (std::size_t i = 0; i < dp.size(); ++i) {
    if (dp[i] != brute[i]) {
      return "prefix " + std::to_string(i) + ": " +
             mismatch("DP vs brute force", dp[i], brute[i]);
    }
  }
  return "";
}

std::string optimal_matches_dp_sum(const em2::RunReport& r,
                                   const std::vector<em2::Cost>& dp) {
  em2::Cost sum = 0;
  for (const em2::Cost c : dp) {
    sum += c;
  }
  return r.network_cost == sum
             ? ""
             : mismatch("optimal network_cost vs per-thread DP sum",
                        r.network_cost, sum);
}

std::string calibration_drained(const em2::RunReport& r) {
  if (!r.noc) {
    return "no contention section";
  }
  return r.noc->calibration_drained ? "" : "calibration replay not drained";
}

std::string prediction_not_below_uncontended(const em2::RunReport& r) {
  if (!r.noc) {
    return "no contention section";
  }
  return r.noc->predicted_total_latency >= r.noc->uncontended_total_latency
             ? ""
             : "corrected prediction " +
                   std::to_string(r.noc->predicted_total_latency) +
                   " below uncontended " +
                   std::to_string(r.noc->uncontended_total_latency);
}

std::string corrected_cost_not_below(const em2::RunReport& corrected,
                                     const em2::RunReport& uncorrected) {
  return corrected.network_cost >= uncorrected.network_cost
             ? ""
             : "corrected network_cost " +
                   std::to_string(corrected.network_cost) +
                   " below uncorrected " +
                   std::to_string(uncorrected.network_cost);
}

std::string exec_leg_completed(const em2::RunReport& r) {
  if (!r.exec) {
    return "no exec section";
  }
  if (r.exec->timed_out) {
    return "timed out";
  }
  return r.exec->consistent ? "" : "not consistent";
}

std::string exact_equals_sequential(const em2::RunReport& seq,
                                    const em2::RunReport& exact) {
  const std::string d = report_diff(seq, exact);
  return d.empty() ? "" : "exact-sharded differs from sequential: " + d;
}

std::string legs_agree(const em2::RunReport& seq,
                       const em2::RunReport& other) {
  if (!seq.exec || !other.exec) {
    return "no exec section";
  }
  if (seq.accesses != other.accesses) {
    return mismatch("accesses across legs", other.accesses, seq.accesses);
  }
  return seq.exec->instructions == other.exec->instructions
             ? ""
             : mismatch("instructions across legs",
                        other.exec->instructions, seq.exec->instructions);
}

std::string decoded_equals(const em2::TraceSource& source,
                           const em2::TraceSet& generated) {
  if (source.num_threads() != generated.num_threads() ||
      source.block_bytes() != generated.block_bytes()) {
    return "geometry differs";
  }
  for (std::size_t t = 0; t < generated.num_threads(); ++t) {
    const em2::ThreadTrace& want = generated.thread(t);
    if (source.native_core(t) != want.native_core()) {
      return "thread " + std::to_string(t) + ": native core differs";
    }
    const std::unique_ptr<em2::AccessCursor> cursor = source.make_cursor(t);
    std::size_t i = 0;
    for (const em2::Access* a = cursor->next(); a != nullptr;
         a = cursor->next(), ++i) {
      if (i >= want.size() || !(*a == want[i])) {
        return "thread " + std::to_string(t) + ": record " +
               std::to_string(i) + " differs";
      }
    }
    if (i != want.size()) {
      return "thread " + std::to_string(t) + ": " +
             mismatch("decoded records", i, want.size());
    }
  }
  return "";
}

std::string streamed_equals_memory(const em2::RunReport& streamed,
                                   const em2::RunReport& memory) {
  const std::string d = report_diff(streamed, memory);
  return d.empty() ? "" : "streamed differs from in-memory: " + d;
}

std::string within_window(std::uint64_t peak, std::uint64_t window) {
  return peak <= window ? ""
                        : "peak resident trace bytes " +
                              std::to_string(peak) + " exceed the window " +
                              std::to_string(window);
}

}  // namespace e2e::checks
