// contended-sweep: {ocean, hotspot} x {em2, em2-ra history, cc} at 256
// cores with contention=measured, every cell calibrated cold (each round
// builds a fresh System, so no calibration is served from its memo
// cache).  The cycle-level fabric replay does most of the work; ocean
// sits in the moderate regime and hotspot saturates the mesh, where the
// analytic model's accuracy differs by more than an order of magnitude.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "workload/registry.hpp"

namespace e2e {
namespace {

const std::vector<std::string> kInputs = {"ocean", "hotspot"};

std::vector<Cell> contended_cells() {
  using em2::MemArch;
  const auto measured = [](em2::RunSpec s) {
    s.contention = em2::ContentionMode::kMeasured;
    return s;
  };
  return {
      {"em2", measured({.arch = MemArch::kEm2})},
      {"em2-ra-history",
       measured({.arch = MemArch::kEm2Ra, .policy = "history"})},
      {"cc", measured({.arch = MemArch::kCc})},
  };
}

class ContendedSweep final : public BenchWorkload {
 public:
  ContendedSweep() {
    config_.threads = kCores;
  }

  void setup(std::uint64_t seed, Tracer* tracer) override {
    workloads_.clear();
    for (const std::string& name : kInputs) {
      const ScopedSpan span(tracer, "workload.generate", -1);
      workloads_.push_back(
          em2::workload::make_workload(name, kCores, 1, seed));
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
           {checks::calibration_drained(r),
            checks::prediction_not_below_uncontended(r),
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
    for (std::size_t w = 0; w < workloads_.size(); ++w) {
      // The corrected pure-EM2 cell against the same run uncorrected.
      const int op = static_cast<int>(w * cells_.size());
      const em2::RunReport uncorrected =
          system_->run(workloads_[w], {.arch = em2::MemArch::kEm2});
      const std::string msg = checks::corrected_cost_not_below(
          ref[static_cast<std::size_t>(op)].report, uncorrected);
      if (!msg.empty()) {
        out.push_back({op, msg});
      }
    }
    return out;
  }

  /// Mean over the calibrated cells of min(P, M) / max(P, M): corrected
  /// analytic prediction P against the fabric's measured latency M.
  std::map<std::string, double> own_metrics(const Round& ref) override {
    double sum = 0;
    for (const OpResult& op : ref) {
      const auto p = static_cast<double>(
          op.report.noc ? op.report.noc->predicted_total_latency : 0);
      const auto m = static_cast<double>(
          op.report.noc ? op.report.noc->measured_total_latency : 0);
      sum += std::max(p, m) > 0 ? std::min(p, m) / std::max(p, m) : 0.0;
    }
    return {{"noc_model_accuracy", sum / static_cast<double>(ref.size())}};
  }

  Round decomposed_round(Tracer* tracer, LayerValues& layer) override {
    const em2::Mesh& mesh = system_->mesh();
    const em2::CostModel& cost = system_->cost_model();
    Round round;
    for (std::size_t w = 0; w < workloads_.size(); ++w) {
      const em2::TraceSet& traces = workloads_[w].traces();
      const int base = static_cast<int>(w * cells_.size());
      layer["workload.accesses"] +=
          static_cast<double>(traces.total_accesses());
      const em2::MemoryTraceSource source(traces);
      const std::unique_ptr<em2::Placement> placement =
          build_placement(tracer, base, layer, config_, source);
      for (std::size_t s = 0; s < cells_.size(); ++s) {
        const em2::RunSpec& spec = cells_[s].spec;
        const int cell = base + static_cast<int>(s);
        const auto engine = [&](const em2::CostModel& model,
                                em2::TrafficRecorder* recorder) {
          return run_engine(tracer, cell, layer, spec, config_, source,
                            *placement, mesh, model, recorder);
        };

        // Pass 1: capture the protocol's earliest packets uncontended.
        std::vector<em2::TrafficEvent> events;
        {
          const ScopedSpan span(tracer, "noc.capture", cell);
          em2::TrafficRecorder recorder(spec.calibration_packets);
          (void)engine(cost, &recorder);
          events = std::move(recorder.events());
          em2::prepare_calibration_events(events, spec.calibration_packets);
        }
        layer["noc.packets"] += static_cast<double>(events.size());
        em2::CalibrationReport cal;
        {
          const ScopedSpan span(tracer, "noc.replay", cell);
          em2::CalibrationOptions copts;
          copts.max_outstanding = 2 * traces.num_threads();
          cal = em2::replay_on_fabric(mesh, cost, events, copts);
        }
        layer["noc.replay_cycles"] += static_cast<double>(cal.cycles);
        em2::RunReport::NocUtilization noc;
        std::unique_ptr<em2::CostModel> corrected;
        {
          const ScopedSpan span(tracer, "noc.correct", cell);
          std::array<em2::VnetLoad, em2::vnet::kNumVnets> loads =
              em2::analyze_offered_load(mesh, cost, events);
          for (std::size_t vn = 0; vn < loads.size(); ++vn) {
            loads[vn].utilization = cal.utilization.seen_by_vnet[vn];
          }
          const em2::HopLatencies hop =
              em2::corrected_hop_latencies(config_.cost, loads);
          corrected = std::make_unique<em2::CostModel>(mesh, config_.cost,
                                                       hop);
          noc.calibration_cycles = cal.cycles;
          noc.calibration_drained = cal.drained;
          noc.measured_total_latency = cal.measured_total_latency;
          if (cal.drained) {
            noc.uncontended_total_latency =
                em2::predict_total_latency(cost, events);
            noc.predicted_total_latency =
                em2::predict_total_latency(*corrected, events);
          }
        }
        OpResult op;
        {
          const ScopedSpan span(tracer, "noc.corrected_run", cell);
          op.report = engine(*corrected, nullptr);
        }
        op.report.noc = noc;
        round.push_back(std::move(op));
      }
    }
    return round;
  }

 private:
  em2::SystemConfig config_;
  std::vector<Cell> cells_ = contended_cells();
  std::vector<em2::workload::Workload> workloads_;
  std::unique_ptr<em2::System> system_;
};

}  // namespace

std::unique_ptr<BenchWorkload> make_contended_sweep(const Options& opts) {
  (void)opts;  // nothing to configure
  return std::make_unique<ContendedSweep>();
}

}  // namespace e2e
