// Shared pieces of the end-to-end benchmark: the per-workload interface
// phases.cpp runs, the span tracer of the traced run, and small helpers.
//
// One process runs one workload (run.py starts a process per workload, so
// the peak resident set it reports belongs to that workload alone).  The
// phase runner (phases.cpp) owns the phases — set-up, measured rounds, output
// checks, traced rounds — and each workload (one .cpp per workload) owns
// its inputs, its operations and its checks.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "api/system.hpp"

namespace e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Simulated cores of every workload (threads == cores, one per core).
inline constexpr std::int32_t kCores = 256;

/// Exec shard count (shards beyond the host's thread budget run on fewer
/// threads and report identically).  Sweeps run on one worker (run_grid).
inline constexpr std::uint32_t kShards = 4;

/// Parsed command line of one benchmark process.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for spilled trace files and the
  /// Chrome trace of a traced run.
  std::string out_dir = ".";
};

/// One operation of a round: a System::run / run_matrix cell, or (for
/// trace-replay) one pass over a stream — open, replay, close.
struct OpResult {
  em2::RunReport report;
  /// Exception text when the operation threw; the operation then failed.
  std::string error;
  /// Stream passes: bytes of the opened file and the reader's peak
  /// resident trace bytes over the pass.
  std::uint64_t file_bytes = 0;
  std::uint64_t peak_resident = 0;
  /// Host seconds the operation took (untraced rounds).
  double seconds = 0;
};
using Round = std::vector<OpResult>;

/// A check's verdict on one operation (op >= 0) or on the whole run
/// (op == kWholeRun).
struct Finding {
  static constexpr int kWholeRun = -1;
  int op = kWholeRun;
  std::string message;
};

/// Host-time spans of the traced run, kept in memory and written out when
/// the run ends.  Single-threaded: the traced run drives cells one at a
/// time, so children nest strictly inside their parent.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
    int parent = -1;
    int cell = -1;
    int round = 0;
  };

  Tracer() : origin_(Clock::now()) {}

  int begin(std::string name, int cell);
  /// Closes span `id` and returns its duration in seconds.
  double end(int id);

  void set_round(int round) { round_ = round; }
  /// Added to the cell id of every span begun with one (cell >= 0): a
  /// composite workload's parts number their cells from 0.
  void set_cell_base(int base) { cell_base_ = base; }
  int round() const { return round_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// Sum of the durations (seconds) of spans called `name` in `round`.
  double total(const std::string& name, int round) const;
  /// Sum over `round` of each span's self time (duration minus the time
  /// its direct children cover), keyed by layer (the name up to the
  /// first '.').
  std::map<std::string, double> self_by_layer(int round) const;

  /// Chrome trace-event JSON ("X" complete events), loadable in Perfetto.
  bool write_chrome_json(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  int round_ = 0;
  int cell_base_ = 0;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, int cell)
      : tracer_(tracer),
        id_(tracer ? tracer->begin(std::move(name), cell) : -1) {}
  ~ScopedSpan() { close(); }
  /// Ends the span early; returns its duration in seconds (0 untraced).
  double close() {
    Tracer* const t = tracer_;
    tracer_ = nullptr;
    return t != nullptr ? t->end(id_) : 0.0;
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Per-round per-layer numbers of a traced round (metric name -> value);
/// the median over rounds is reported.
using LayerValues = std::map<std::string, double>;

/// What every workload provides to the phase runner (phases.cpp).
class BenchWorkload {
 public:
  virtual ~BenchWorkload() = default;

  /// Generates the inputs from `seed` (and, for trace-replay, spills the
  /// trace files).  Called several times; each call replaces the inputs.
  /// `tracer` is non-null in the traced run.
  virtual void setup(std::uint64_t seed, Tracer* tracer) = 0;

  /// Labels of the operations of one round, in order.
  virtual std::vector<std::string> op_names() const = 0;

  /// One round through the public System API.  Untraced (`tracer` null)
  /// rounds use run_matrix where the workload is a sweep; traced rounds
  /// run the same cells one System::run at a time, each inside an
  /// "api.run" span.
  virtual Round run_round(Tracer* tracer) = 0;

  /// Checks that hold for every round on its own (cheap).
  virtual std::vector<Finding> check_round(const Round& round) const {
    (void)round;
    return {};
  }

  /// Checks of the outputs against computations made apart from the
  /// program; run once, after the measured phase, on the first round.
  virtual std::vector<Finding> check_outputs(const Round& ref) {
    (void)ref;
    return {};
  }

  /// The workload's own end-to-end metrics (accuracy, bytes per access).
  virtual std::map<std::string, double> own_metrics(const Round& ref) {
    (void)ref;
    return {};
  }

  /// The traced run's cells, driven through the layers' public functions
  /// in the order System::run calls them, with a span around each call
  /// (no spans when `tracer` is null: the same work untraced, for the
  /// tracing overhead).  Returns one report per operation, rebuilt from
  /// the layer results (diffed against System::run's), and fills the
  /// round's per-layer counts; phases.cpp adds the span times
  /// and the rates derived from them.
  virtual Round decomposed_round(Tracer* tracer, LayerValues& layer) = 0;
};

std::unique_ptr<BenchWorkload> make_figure_sweep(const Options& opts);
std::unique_ptr<BenchWorkload> make_contended_sweep(const Options& opts);
std::unique_ptr<BenchWorkload> make_exec_sharded(const Options& opts);
std::unique_ptr<BenchWorkload> make_trace_replay(const Options& opts);

/// One labelled RunSpec of a workload's grid.
struct Cell {
  std::string label;
  em2::RunSpec spec;
};

/// Operation names of the inputs x cells grid, input-major:
/// "<input>/<cell label>".
std::vector<std::string> grid_names(const std::vector<std::string>& inputs,
                                    const std::vector<Cell>& cells);

/// One round of the workloads x cells grid on a fresh System (so no
/// placement or calibration comes from an earlier round's memo cache):
/// run_matrix on one sweep worker under MatrixErrorPolicy::kCapture when
/// untraced, each cell timed on its own; one System::run per cell, each in
/// an "api.run" span, when traced.
Round run_grid(const em2::SystemConfig& config,
               const std::vector<em2::workload::Workload>& workloads,
               const std::vector<Cell>& cells, Tracer* tracer);

/// Builds config.placement over `traces` as System::run does, inside a
/// "placement.build" span, and counts its blocks.
std::unique_ptr<em2::Placement> build_placement(
    Tracer* tracer, int cell, LayerValues& layer,
    const em2::SystemConfig& config, const em2::TraceSource& traces);

/// Adds one engine run to the per-layer numbers under `prefix` ("em2",
/// "coherence", "em2ra", "em2ra.history", ...): its seconds to
/// <prefix>.run_s, its accesses to <prefix>.accesses and its counters to
/// <prefix>.migrations and the like.
void record_run(LayerValues& layer, const std::string& prefix,
                double seconds, const em2::RunReport& r);
/// Per-policy metric prefix of an EM2-RA spec ("distance:4" ->
/// "em2ra.distance-4").
std::string policy_prefix(std::string spec);

/// Runs `spec`'s trace-mode engine over `traces` as System::run does for
/// that arch (run_em2, run_em2_replicated, run_em2ra or run_cc), inside a
/// span named after its layer, and records the run under that layer (and
/// under its policy for EM2-RA).  Returns the counters System::run would
/// report.
em2::RunReport run_engine(Tracer* tracer, int cell, LayerValues& layer,
                          const em2::RunSpec& spec,
                          const em2::SystemConfig& config,
                          const em2::TraceSource& traces,
                          const em2::Placement& placement,
                          const em2::Mesh& mesh, const em2::CostModel& cost,
                          em2::TrafficRecorder* recorder = nullptr);

/// Field-by-field RunReport comparison over every deterministic field
/// (counters, run lengths, and every optional section); returns the first
/// difference, or an empty string when equal.
std::string report_diff(const em2::RunReport& a, const em2::RunReport& b);

/// Comparison of the counters a decomposed cell must reproduce: accesses,
/// migrations, evictions, remote accesses, messages, network cost, and
/// the exec cycles and instructions.
std::string counter_diff(const em2::RunReport& sys,
                         const em2::RunReport& decomposed);

/// Wraps a System::run call for an operation: exceptions become the
/// operation's error.
template <typename Fn>
OpResult capture_op(Fn&& fn) {
  OpResult op;
  const Clock::time_point t0 = Clock::now();
  try {
    op.report = fn();
  } catch (const std::exception& e) {
    op.error = e.what();
  }
  op.seconds = seconds_since(t0);
  return op;
}

}  // namespace e2e
