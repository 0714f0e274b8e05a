// trace-replay: an out-of-core replay.  Set-up spills a large ocean trace
// (256 cores, scale 8, ~7M accesses) to a verbatim and an em2z EM2S file;
// each round opens the em2z file and replays it in trace mode for em2,
// em2-ra history and cc under a small stream window.  The trace engines
// and EM2S decode do the work with no DP or fabric behind them; encoding
// lands in set-up time, decoding in the rate.
//
// Set-up runs in a child process in the untraced run, so the parent's
// peak resident set covers the replay alone: the in-memory trace is never
// resident in the measuring process until the output checks regenerate
// it, after the peak has been read.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "checks.hpp"
#include "trace/stream/codec.hpp"
#include "trace/stream/convert.hpp"
#include "workload/registry.hpp"

namespace e2e {
namespace {

constexpr std::int32_t kScale = 8;
/// Stream window of every replay: 16 KiB per thread cursor at 256
/// threads, against ~450 KiB of in-memory trace per thread.
constexpr std::uint64_t kWindow = 4ull << 20;

std::vector<Cell> replay_cells() {
  using em2::MemArch;
  const auto windowed = [](em2::RunSpec s) {
    s.stream_window = kWindow;
    return s;
  };
  return {
      {"em2", windowed({.arch = MemArch::kEm2})},
      {"em2-ra-history",
       windowed({.arch = MemArch::kEm2Ra, .policy = "history"})},
      {"cc", windowed({.arch = MemArch::kCc})},
  };
}

/// Reads every record of every thread of `source` through its cursors.
std::uint64_t drain(const em2::TraceSource& source) {
  std::uint64_t n = 0;
  for (std::size_t t = 0; t < source.num_threads(); ++t) {
    const std::unique_ptr<em2::AccessCursor> cursor = source.make_cursor(t);
    while (cursor->next() != nullptr) {
      ++n;
    }
  }
  return n;
}

class TraceReplay final : public BenchWorkload {
 public:
  explicit TraceReplay(const Options& opts) {
    config_.threads = kCores;
    const std::string stem = opts.out_dir + "/trace-replay-" +
                             std::to_string(::getpid());
    verbatim_path_ = stem + "-verbatim.em2s";
    em2z_path_ = stem + "-em2z.em2s";
  }

  ~TraceReplay() override {
    std::remove(verbatim_path_.c_str());
    std::remove(em2z_path_.c_str());
  }
  TraceReplay(const TraceReplay&) = delete;
  TraceReplay& operator=(const TraceReplay&) = delete;

  void setup(std::uint64_t seed, Tracer* tracer) override {
    seed_ = seed;
    if (tracer != nullptr) {
      spill(tracer);
    } else {
      std::fflush(nullptr);
      const pid_t pid = ::fork();
      if (pid < 0) {
        throw std::runtime_error("fork failed");
      }
      if (pid == 0) {
        int code = 1;
        try {
          code = spill(nullptr) ? 0 : 1;
        } catch (...) {
        }
        ::_exit(code);
      }
      int status = 0;
      if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
          WEXITSTATUS(status) != 0) {
        throw std::runtime_error("trace spill failed");
      }
    }
    const em2::TraceStream em2z(em2z_path_);
    accesses_ = em2z.total_accesses();
    em2z_bytes_ = em2z.file_bytes();
    system_ = std::make_unique<em2::System>(config_);
  }

  std::vector<std::string> op_names() const override {
    std::vector<std::string> names = {"em2z-stream"};
    for (const Cell& c : cells_) {
      names.push_back("em2z/" + c.label);
    }
    return names;
  }

  Round run_round(Tracer* tracer) override {
    const em2::System sys(config_);
    Round round(1 + cells_.size());
    std::unique_ptr<em2::TraceStream> stream;
    const Clock::time_point t0 = Clock::now();
    try {
      stream = std::make_unique<em2::TraceStream>(em2z_path_);
    } catch (const std::exception& e) {
      round[0].error = e.what();
    }
    round[0].seconds = seconds_since(t0);
    for (std::size_t s = 0; s < cells_.size(); ++s) {
      if (!stream) {
        round[1 + s].error = "stream did not open";
        continue;
      }
      const ScopedSpan span(tracer, "api.run", static_cast<int>(1 + s));
      round[1 + s] =
          capture_op([&] { return sys.run(*stream, cells_[s].spec); });
    }
    if (stream) {
      round[0].file_bytes = stream->file_bytes();
      round[0].peak_resident = stream->peak_resident_trace_bytes();
    }
    return round;
  }

  std::vector<Finding> check_round(const Round& round) const override {
    const std::string msg =
        checks::within_window(round[0].peak_resident, kWindow);
    if (msg.empty()) {
      return {};
    }
    return {{0, msg}};
  }

  std::vector<Finding> check_outputs(const Round& ref) override {
    std::vector<Finding> out;
    const em2::workload::Workload generated =
        em2::workload::make_workload("ocean", kCores, kScale, seed_);
    for (const std::string& path : {verbatim_path_, em2z_path_}) {
      const em2::TraceStream stream(path);
      stream.set_stream_window(kWindow);
      const std::string msg =
          checks::decoded_equals(stream, generated.traces());
      if (!msg.empty()) {
        out.push_back({Finding::kWholeRun, path + ": " + msg});
      }
      if (path == verbatim_path_) {
        const std::string window = checks::within_window(
            stream.peak_resident_trace_bytes(), kWindow);
        if (!window.empty()) {
          out.push_back({Finding::kWholeRun, "verbatim decode: " + window});
        }
      }
    }
    for (std::size_t s = 0; s < cells_.size(); ++s) {
      const em2::RunReport memory = system_->run(generated, cells_[s].spec);
      const std::string msg =
          checks::streamed_equals_memory(ref[1 + s].report, memory);
      if (!msg.empty()) {
        out.push_back({static_cast<int>(1 + s), msg});
      }
    }
    return out;
  }

  std::map<std::string, double> own_metrics(const Round& ref) override {
    (void)ref;
    return {{"trace_bytes_per_access", bytes_per_access()}};
  }

  Round decomposed_round(Tracer* tracer, LayerValues& layer) override {
    const em2::Mesh& mesh = system_->mesh();
    const em2::CostModel& cost = system_->cost_model();
    Round round(1 + cells_.size());
    std::unique_ptr<em2::TraceStream> stream;
    {
      const ScopedSpan span(tracer, "trace.open", -1);
      stream = std::make_unique<em2::TraceStream>(em2z_path_);
      stream->set_stream_window(kWindow);
    }
    layer["workload.accesses"] += static_cast<double>(accesses_);
    for (std::size_t s = 0; s < cells_.size(); ++s) {
      const em2::RunSpec& spec = cells_[s].spec;
      const int cell = static_cast<int>(1 + s);
      const std::unique_ptr<em2::Placement> placement =
          build_placement(tracer, cell, layer, config_, *stream);
      round[1 + s].report = run_engine(tracer, cell, layer, spec, config_,
                                       *stream, *placement, mesh, cost);
    }
    round[0].file_bytes = stream->file_bytes();
    round[0].peak_resident = stream->peak_resident_trace_bytes();
    layer["trace.peak_resident_bytes"] =
        static_cast<double>(round[0].peak_resident);
    layer["trace.bytes_per_access"] = bytes_per_access();
    for (const auto& [name, path] :
         {std::pair<const char*, const std::string*>{"trace.decode",
                                                      &verbatim_path_},
          {"trace.decode_em2z", &em2z_path_}}) {
      const ScopedSpan span(tracer, name, -1);
      const em2::TraceStream decode(*path);
      decode.set_stream_window(kWindow);
      (void)drain(decode);
    }
    return round;
  }

 private:
  /// Generates the trace and writes both files; true when both writes
  /// succeeded.
  bool spill(Tracer* tracer) const {
    std::unique_ptr<em2::workload::Workload> w;
    {
      const ScopedSpan span(tracer, "workload.generate", -1);
      w = std::make_unique<em2::workload::Workload>(
          em2::workload::make_workload("ocean", kCores, kScale, seed_));
    }
    bool ok = false;
    {
      const ScopedSpan span(tracer, "trace.encode", -1);
      ok = em2::write_trace_stream(verbatim_path_, w->traces());
    }
    const em2::em2s::Em2zCodec codec;
    const ScopedSpan span(tracer, "trace.encode_em2z", -1);
    return em2::write_trace_stream(em2z_path_, w->traces(),
                                   {.codec = &codec}) &&
           ok;
  }

  double bytes_per_access() const {
    return static_cast<double>(em2z_bytes_) /
           static_cast<double>(accesses_);
  }

  em2::SystemConfig config_;
  std::vector<Cell> cells_ = replay_cells();
  std::string verbatim_path_;
  std::string em2z_path_;
  std::uint64_t seed_ = 1;
  std::uint64_t accesses_ = 0;
  std::uint64_t em2z_bytes_ = 0;
  std::unique_ptr<em2::System> system_;
};

}  // namespace

std::unique_ptr<BenchWorkload> make_trace_replay(const Options& opts) {
  return std::make_unique<TraceReplay>(opts);
}

}  // namespace e2e
