// Experiment C4: complexity of the paper's dynamic program.
//
// "This optimal solution can be computed in time O(N*P^2), where N is the
// length of the trace and P is the number of processor cores.  Computing
// the equivalent cost of a specific decision ... is O(N)."
//
// We measure wall-clock time of (a) the implemented DP (the paper's
// recurrence swept over the reachable frontier — the start core plus the
// homes seen so far — which costs O(sum_k |frontier_k|) <= O(N*P)), (b)
// the relaxed O(N*P^2) variant (the literal bound), and (c) the O(N)
// policy evaluator, and report the normalized cost per unit work so the
// scaling exponents are visible.  Uniform-random traces across N and P
// saturate the frontier at P within a few hundred accesses (the dense
// worst case); the registry rows (ocean and sharing-mix on 256 cores,
// first-touch placement, every thread) show the sparse case the paper's
// figures run: the mean frontier size per step is the column to read.
#include <chrono>
#include <cstdio>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "noc/cost_model.hpp"
#include "optimal/dp_migrate.hpp"
#include "optimal/policy_eval.hpp"
#include "placement/placement.hpp"
#include "util/args.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "workload/registry.hpp"

namespace {

/// One bench row: the model traces of every thread of one input.
struct Instance {
  std::string trace;
  std::int32_t cores = 0;
  std::vector<em2::ModelTrace> threads;
  bool run_relaxed = false;
};

em2::ModelTrace random_trace(std::int32_t cores, std::int64_t n,
                             std::uint64_t seed) {
  em2::Rng rng(seed);
  em2::ModelTrace t;
  t.start = 0;
  t.homes.reserve(static_cast<std::size_t>(n));
  t.ops.reserve(static_cast<std::size_t>(n));
  for (std::int64_t i = 0; i < n; ++i) {
    t.homes.push_back(static_cast<em2::CoreId>(
        rng.next_below(static_cast<std::uint64_t>(cores))));
    t.ops.push_back(rng.next_bool(0.3) ? em2::MemOp::kWrite
                                       : em2::MemOp::kRead);
  }
  return t;
}

/// Per-thread model traces of a registry workload under first-touch
/// placement — the optimal-mode input System::run builds.
std::vector<em2::ModelTrace> registry_traces(const std::string& name,
                                             std::int32_t cores) {
  const em2::TraceSet traces = *em2::workload::make_by_name(name, cores, 1, 1);
  const auto placement = em2::make_placement("first-touch", traces, cores);
  std::vector<em2::ModelTrace> out;
  for (const auto& thread : traces.threads()) {
    em2::ModelTrace t;
    t.homes = em2::home_sequence(thread, traces, *placement);
    for (const auto& a : thread.accesses()) {
      t.ops.push_back(a.op);
    }
    t.start = thread.native_core();
    out.push_back(std::move(t));
  }
  return out;
}

/// Sum over steps of the frontier size the DP sweeps: the start core
/// plus every distinct home before the step.
std::uint64_t frontier_slots(const em2::ModelTrace& t, std::int32_t cores) {
  std::vector<bool> seen(static_cast<std::size_t>(cores), false);
  seen[static_cast<std::size_t>(t.start)] = true;
  std::uint64_t size = 1;
  std::uint64_t slots = 0;
  for (const em2::CoreId d : t.homes) {
    slots += size;
    if (!seen[static_cast<std::size_t>(d)]) {
      seen[static_cast<std::size_t>(d)] = true;
      ++size;
    }
  }
  return slots;
}

double time_ms(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(stop - start).count();
}

}  // namespace

int main(int argc, char** argv) {
  const em2::Args args(argc, argv);
  const bool json = args.has("json");
  if (!json) {
    std::printf("=== DP scaling: frontier-swept paper recurrence vs "
                "O(N*P^2) relaxed vs O(N) policy eval ===\n\n");
  }

  std::vector<Instance> instances;
  for (const std::int32_t cores : {16, 64, 256}) {
    for (const std::int64_t n : {10'000, 40'000, 160'000}) {
      // The relaxed solver is O(N*P^2) in time AND O(N*P) in memory
      // (backpointers); keep its instances smaller.
      instances.push_back({"uniform-random", cores,
                           {random_trace(cores, n, 1)},
                           n <= 10'000 || cores <= 64});
    }
  }
  for (const std::string name : {"ocean", "sharing-mix"}) {
    instances.push_back({name, 256, registry_traces(name, 256), false});
  }

  em2::Table t({"trace", "P", "N", "frontier", "dp_ms", "dp_ns/(N*P)",
                "dp_ns/slot", "relaxed_ms", "relaxed_ns/(N*P^2)",
                "policy_ms", "policy_ns/N"});
  for (const Instance& inst : instances) {
    const em2::CostModel model(em2::Mesh::near_square(inst.cores),
                               em2::CostModelParams{});
    std::uint64_t n = 0;
    std::uint64_t slots = 0;
    for (const em2::ModelTrace& trace : inst.threads) {
      n += trace.homes.size();
      slots += frontier_slots(trace, inst.cores);
    }
    em2::Cost dp_cost = 0;
    const double dp_ms = time_ms([&] {
      for (const em2::ModelTrace& trace : inst.threads) {
        dp_cost += em2::solve_optimal_migrate_ra(trace, model).total_cost;
      }
    });
    double relaxed_ms = -1;
    if (inst.run_relaxed) {
      em2::Cost relaxed_cost = 0;
      relaxed_ms = time_ms([&] {
        for (const em2::ModelTrace& trace : inst.threads) {
          relaxed_cost += em2::solve_optimal_relaxed(trace, model).total_cost;
        }
      });
      if (relaxed_cost > dp_cost) {
        std::fprintf(stderr, "relaxed solver worse than DP!?\n");
        return 1;
      }
    }
    em2::AlwaysMigratePolicy pol;
    const double policy_ms = time_ms([&] {
      for (const em2::ModelTrace& trace : inst.threads) {
        (void)em2::evaluate_policy_model(trace, model, pol);
      }
    });

    const double np = static_cast<double>(n) * inst.cores;
    const double frontier =
        n ? static_cast<double>(slots) / static_cast<double>(n) : 0.0;
    const double ns_per_slot =
        slots ? dp_ms * 1e6 / static_cast<double>(slots) : 0.0;
    if (json) {
      em2::JsonWriter w;
      w.add("bench", "dp_scaling")
          .add("trace", inst.trace)
          .add("cores", inst.cores)
          .add("n", n)
          .add("mean_frontier", frontier)
          .add("dp_ms", dp_ms)
          .add("dp_ns_per_np", dp_ms * 1e6 / np)
          .add("dp_ns_per_slot", ns_per_slot)
          .add("relaxed_ms", relaxed_ms)
          .add("policy_ms", policy_ms)
          .add("policy_ns_per_n", policy_ms * 1e6 / static_cast<double>(n))
          .add("dp_states_per_sec", dp_ms > 0 ? np / (dp_ms / 1e3) : 0.0);
      w.print();
      continue;
    }
    t.begin_row()
        .add_cell(inst.trace)
        .add_cell(inst.cores)
        .add_cell(n)
        .add_cell(frontier, 1)
        .add_cell(dp_ms, 2)
        .add_cell(dp_ms * 1e6 / np, 2)
        .add_cell(ns_per_slot, 2)
        .add_cell(relaxed_ms, 2)
        .add_cell(relaxed_ms < 0 ? -1.0 : relaxed_ms * 1e6 / (np * inst.cores),
                  3)
        .add_cell(policy_ms, 3)
        .add_cell(policy_ms * 1e6 / static_cast<double>(n), 2);
  }
  if (json) {
    return 0;
  }
  t.print(std::cout);
  std::printf("\n(dp_ns/slot roughly constant across rows => the DP costs "
              "O(sum of frontier sizes); on uniform-random traces the "
              "frontier saturates at P, so dp_ns/(N*P) is constant there "
              "too: O(N*P), within the paper's O(N*P^2) bound.  Registry "
              "rows keep the frontier far below P.  relaxed_ns/(N*P^2) "
              "constant => the literal bound; policy_ns/N constant => O(N) "
              "evaluation)\n");
  return 0;
}
