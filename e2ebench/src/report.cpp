#include <sstream>

#include "bench.hpp"

namespace e2e {

namespace {

/// Collects "field: a != b" for the first mismatching field.
class Differ {
 public:
  template <typename T>
  Differ& field(const char* name, const T& a, const T& b) {
    if (diff_.empty() && !(a == b)) {
      std::ostringstream os;
      os << name << ": " << a << " != " << b;
      diff_ = os.str();
    }
    return *this;
  }
  Differ& same(const char* name, bool equal) {
    if (diff_.empty() && !equal) {
      diff_ = std::string(name) + " differs";
    }
    return *this;
  }
  std::string str() const { return diff_; }

 private:
  std::string diff_;
};

bool same_histogram(const em2::Histogram& a, const em2::Histogram& b) {
  if (a.total() != b.total() || a.max_tracked() != b.max_tracked() ||
      a.weighted_sum() != b.weighted_sum()) {
    return false;
  }
  for (std::uint64_t v = 0; v <= a.max_tracked() + 1; ++v) {
    if (a.count(v) != b.count(v)) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string report_diff(const em2::RunReport& a, const em2::RunReport& b) {
  Differ d;
  d.field("arch_label", a.arch_label, b.arch_label)
      .field("placement", a.placement, b.placement)
      .field("error", a.error, b.error);
  d.field("accesses", a.accesses, b.accesses)
      .field("migrations", a.migrations, b.migrations)
      .field("evictions", a.evictions, b.evictions)
      .field("remote_accesses", a.remote_accesses, b.remote_accesses)
      .field("replicated_reads", a.replicated_reads, b.replicated_reads)
      .field("network_cost", a.network_cost, b.network_cost)
      .field("traffic_bits", a.traffic_bits, b.traffic_bits)
      .field("messages", a.messages, b.messages)
      .field("cost_per_access", a.cost_per_access, b.cost_per_access);
  const em2::RunLengthReport& ra = a.run_lengths;
  const em2::RunLengthReport& rb = b.run_lengths;
  d.field("run_lengths.total_accesses", ra.total_accesses, rb.total_accesses)
      .field("run_lengths.nonnative_accesses", ra.nonnative_accesses,
             rb.nonnative_accesses)
      .field("run_lengths.migrations", ra.migrations, rb.migrations)
      .field("run_lengths.nonnative_runs", ra.nonnative_runs,
             rb.nonnative_runs)
      .field("run_lengths.return_to_origin_runs", ra.return_to_origin_runs,
             rb.return_to_origin_runs)
      .same("run_lengths.accesses_by_run_length",
            same_histogram(ra.accesses_by_run_length,
                           rb.accesses_by_run_length))
      .same("run_lengths.runs_by_run_length",
            same_histogram(ra.runs_by_run_length, rb.runs_by_run_length));
  d.same("exec section present", a.exec.has_value() == b.exec.has_value());
  if (a.exec && b.exec) {
    d.field("exec.cycles", a.exec->cycles, b.exec->cycles)
        .field("exec.instructions", a.exec->instructions,
               b.exec->instructions)
        .field("exec.consistent", a.exec->consistent, b.exec->consistent)
        .field("exec.timed_out", a.exec->timed_out, b.exec->timed_out)
        .field("exec.watchdog_fired", a.exec->watchdog_fired,
               b.exec->watchdog_fired)
        .field("exec.violations", a.exec->violations.size(),
               b.exec->violations.size())
        .same("exec.finish_cycle",
              a.exec->finish_cycle == b.exec->finish_cycle);
  }
  d.same("optimal section present",
         a.optimal.has_value() == b.optimal.has_value());
  if (a.optimal && b.optimal) {
    d.field("optimal.cost", a.optimal->cost, b.optimal->cost)
        .field("optimal.migrations", a.optimal->migrations,
               b.optimal->migrations)
        .field("optimal.remote_accesses", a.optimal->remote_accesses,
               b.optimal->remote_accesses);
  }
  d.same("cc section present", a.cc.has_value() == b.cc.has_value());
  if (a.cc && b.cc) {
    d.field("cc.replication_factor", a.cc->replication_factor,
            b.cc->replication_factor)
        .field("cc.directory_bits", a.cc->directory_bits,
               b.cc->directory_bits);
  }
  d.same("noc section present", a.noc.has_value() == b.noc.has_value());
  if (a.noc && b.noc) {
    d.same("noc.utilization", a.noc->utilization == b.noc->utilization)
        .same("noc.corrected_per_hop",
              a.noc->corrected_per_hop == b.noc->corrected_per_hop)
        .field("noc.calibration_packets", a.noc->calibration_packets,
               b.noc->calibration_packets)
        .field("noc.calibration_cycles", a.noc->calibration_cycles,
               b.noc->calibration_cycles)
        .field("noc.calibration_drained", a.noc->calibration_drained,
               b.noc->calibration_drained)
        .field("noc.measured_total_latency", a.noc->measured_total_latency,
               b.noc->measured_total_latency)
        .field("noc.predicted_total_latency",
               a.noc->predicted_total_latency,
               b.noc->predicted_total_latency)
        .field("noc.uncontended_total_latency",
               a.noc->uncontended_total_latency,
               b.noc->uncontended_total_latency);
  }
  d.same("resilience section present",
         a.resilience.has_value() == b.resilience.has_value());
  return d.str();
}

std::string counter_diff(const em2::RunReport& sys,
                         const em2::RunReport& decomposed) {
  Differ d;
  d.field("accesses", sys.accesses, decomposed.accesses)
      .field("migrations", sys.migrations, decomposed.migrations)
      .field("evictions", sys.evictions, decomposed.evictions)
      .field("remote_accesses", sys.remote_accesses,
             decomposed.remote_accesses)
      .field("messages", sys.messages, decomposed.messages)
      .field("network_cost", sys.network_cost, decomposed.network_cost);
  if (sys.exec) {
    d.same("exec section present", decomposed.exec.has_value());
    if (decomposed.exec) {
      d.field("exec.cycles", sys.exec->cycles, decomposed.exec->cycles)
          .field("exec.instructions", sys.exec->instructions,
                 decomposed.exec->instructions);
    }
  }
  if (sys.noc) {
    d.same("noc section present", decomposed.noc.has_value());
    if (decomposed.noc) {
      d.field("noc.measured_total_latency", sys.noc->measured_total_latency,
              decomposed.noc->measured_total_latency)
          .field("noc.predicted_total_latency",
                 sys.noc->predicted_total_latency,
                 decomposed.noc->predicted_total_latency)
          .field("noc.calibration_cycles", sys.noc->calibration_cycles,
                 decomposed.noc->calibration_cycles);
    }
  }
  return d.str();
}

}  // namespace e2e
