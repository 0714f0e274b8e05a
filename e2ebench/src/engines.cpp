#include <algorithm>

#include "bench.hpp"
#include "em2/replication.hpp"

namespace e2e {

std::vector<std::string> grid_names(const std::vector<std::string>& inputs,
                                    const std::vector<Cell>& cells) {
  std::vector<std::string> names;
  for (const std::string& input : inputs) {
    for (const Cell& c : cells) {
      names.push_back(input + "/" + c.label);
    }
  }
  return names;
}

Round run_grid(const em2::SystemConfig& config,
               const std::vector<em2::workload::Workload>& workloads,
               const std::vector<Cell>& cells, Tracer* tracer) {
  const em2::System sys(config);
  Round round;
  if (tracer == nullptr) {
    std::vector<em2::RunSpec> specs;
    for (const Cell& c : cells) {
      specs.push_back(c.spec);
    }
    // One sweep worker runs the cells in order and reports each as it
    // completes, so the gaps between the reports time the cells.
    std::vector<double> done_at(workloads.size() * cells.size(), 0.0);
    const Clock::time_point t0 = Clock::now();
    em2::sweep::Options sweep{.num_threads = 1};
    sweep.progress = [&](std::size_t done, std::size_t) {
      done_at[done - 1] = seconds_since(t0);
    };
    for (const em2::RunReport& r : sys.run_matrix(
             workloads, specs, sweep, em2::MatrixErrorPolicy::kCapture)) {
      OpResult op;
      op.report = r;
      op.error = r.error;
      const std::size_t i = round.size();
      op.seconds = done_at[i] - (i == 0 ? 0.0 : done_at[i - 1]);
      round.push_back(std::move(op));
    }
    return round;
  }
  for (const em2::workload::Workload& w : workloads) {
    for (const Cell& c : cells) {
      const ScopedSpan span(tracer, "api.run",
                            static_cast<int>(round.size()));
      round.push_back(capture_op([&] { return sys.run(w, c.spec); }));
    }
  }
  return round;
}

std::unique_ptr<em2::Placement> build_placement(
    Tracer* tracer, int cell, LayerValues& layer,
    const em2::SystemConfig& config, const em2::TraceSource& traces) {
  std::unique_ptr<em2::Placement> placement;
  {
    const ScopedSpan span(tracer, "placement.build", cell);
    placement = em2::make_placement(config.placement, traces, kCores);
  }
  layer["placement.blocks"] += static_cast<double>(
      static_cast<const em2::TablePlacement&>(*placement).assigned_blocks());
  return placement;
}

std::string policy_prefix(std::string spec) {
  std::replace(spec.begin(), spec.end(), ':', '-');
  return "em2ra." + spec;
}

void record_run(LayerValues& layer, const std::string& prefix,
                double seconds, const em2::RunReport& r) {
  layer[prefix + ".run_s"] += seconds;
  layer[prefix + ".accesses"] += static_cast<double>(r.accesses);
  layer[prefix + ".migrations"] += static_cast<double>(r.migrations);
  layer[prefix + ".evictions"] += static_cast<double>(r.evictions);
  layer[prefix + ".remote_accesses"] +=
      static_cast<double>(r.remote_accesses);
  layer[prefix + ".messages"] += static_cast<double>(r.messages);
}

em2::RunReport run_engine(Tracer* tracer, int cell, LayerValues& layer,
                          const em2::RunSpec& spec,
                          const em2::SystemConfig& config,
                          const em2::TraceSource& traces,
                          const em2::Placement& placement,
                          const em2::Mesh& mesh, const em2::CostModel& cost,
                          em2::TrafficRecorder* recorder) {
  em2::RunReport out;
  const auto fill = [&out](const em2::Em2RunReport& r) {
    out.accesses = r.counters.get("accesses");
    out.migrations = r.counters.get("migrations");
    out.evictions = r.counters.get("evictions");
    out.network_cost = r.total_thread_cost + r.total_eviction_cost;
  };
  switch (spec.arch) {
    case em2::MemArch::kEm2: {
      ScopedSpan span(tracer, "em2.run", cell);
      if (spec.replication) {
        fill(em2::run_em2_replicated(traces, placement, mesh, cost,
                                     config.em2,
                                     em2::replicable_blocks(traces, 1),
                                     recorder));
      } else {
        fill(em2::run_em2(traces, placement, mesh, cost, config.em2,
                          recorder));
      }
      record_run(layer, "em2", span.close(), out);
      break;
    }
    case em2::MemArch::kEm2Ra: {
      ScopedSpan span(tracer, "em2ra.run", cell);
      em2::StandardPolicy policy =
          em2::StandardPolicy::make(spec.policy, mesh, cost);
      const em2::HybridRunReport r = em2::run_em2ra(
          traces, placement, mesh, cost, config.em2, policy, recorder);
      const double seconds = span.close();
      fill(r.em2);
      out.remote_accesses = r.remote_accesses;
      record_run(layer, "em2ra", seconds, out);
      record_run(layer, policy_prefix(spec.policy), seconds, out);
      break;
    }
    case em2::MemArch::kCc: {
      ScopedSpan span(tracer, "coherence.run", cell);
      em2::DirCcParams cc = config.cc;
      cc.private_cache.line_bytes = traces.block_bytes();
      const em2::CcRunReport r =
          em2::run_cc(traces, placement, mesh, cost, cc, recorder);
      out.accesses = r.counters.get("accesses");
      out.messages = r.counters.get("messages");
      out.network_cost = r.total_latency;
      record_run(layer, "coherence", span.close(), out);
      break;
    }
  }
  return out;
}

}  // namespace e2e
