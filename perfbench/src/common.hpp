#pragma once
// Shared pieces of the repository benchmark: timing and percentiles, the
// in-memory span recorder of traced runs, the bit-identity comparison of
// session results, and the outcome every workload fills in.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "nn/model.hpp"
#include "runtime/session.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// AIFT_NUM_THREADS every run is pinned to (run.py sets it). Together with
/// the load generator and the serving batcher thread this uses four
/// threads, the vCPU count of the host the rates were chosen on.
inline constexpr int kPinnedWorkers = 2;

[[nodiscard]] double seconds_between(Clock::time_point from,
                                     Clock::time_point to);

/// Nearest-rank percentile, q in [0, 100]; 0 for no samples.
[[nodiscard]] double percentile(std::vector<double> samples, double q);
[[nodiscard]] double median(std::vector<double> samples);

/// One recorded interval around a call into the library.
struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  std::int64_t parent = -1;   ///< index of the enclosing span, -1 for roots
  std::int64_t request = -1;  ///< request / repetition id, -1 when none
  std::int64_t layer = -1;    ///< model layer index, -1 when none
};

/// Spans kept in memory and written out when the run ends. Disabled
/// recorders record nothing, so untraced runs pay one branch per call.
/// Used from one thread at a time.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Opens a span and returns its id (-1 when disabled).
  std::int64_t begin(const std::string& name, std::int64_t parent = -1,
                     std::int64_t request = -1, std::int64_t layer = -1);
  void end(std::int64_t id);
  /// Closes a span at a time observed earlier.
  void end_at(std::int64_t id, Clock::time_point t);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Span duration minus the part of it that its children cover.
  [[nodiscard]] std::vector<double> self_seconds() const;
  /// Writes every span as a Chrome trace-event JSON file.
  void write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const std::string& name,
             std::int64_t parent = -1, std::int64_t request = -1,
             std::int64_t layer = -1)
      : rec_(rec), id_(rec.begin(name, parent, request, layer)) {}
  ~ScopedSpan() { rec_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  SpanRecorder& rec_;
  std::int64_t id_;
};

/// Output bits and every per-layer trace field agree.
[[nodiscard]] bool same_result(const aift::SessionResult& a,
                               const aift::SessionResult& b);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run found: correctness, counts, metrics and a readable report.
struct Outcome {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<Metric> metrics;
  /// Counts that must repeat exactly at a fixed seed (run.py compares
  /// them with the previous run of the same workload and seed).
  std::map<std::string, std::int64_t> repeat_counts;
  /// Extra JSON members of the detail file (already serialized).
  std::map<std::string, std::string> detail;

  void fail(const std::string& why);
  void metric(const std::string& name, double value, const std::string& unit);
};

/// End-to-end results of one pass over a workload. Every workload reports
/// all four; see README.md for what each means on each workload.
struct EndToEnd {
  double setup_s = 0.0;
  double throughput_per_s = 0.0;
  double lat_p50_ms = 0.0;
  double lat_p90_ms = 0.0;
};

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
};

struct Counter {
  double value = 0.0;
  std::string unit;
};
/// The per-layer counters a workload pass exports, by metric name.
using LayerCounters = std::map<std::string, Counter>;

/// Records request.lat_p99_ms and request.samples: the latency tail of the
/// completed requests (misses have no latency), kept as a traced
/// diagnostic next to the end-to-end p50/p90.
void add_latency_counters(LayerCounters& lc, const std::vector<double>& ms);

/// One model replayed layer by layer in a traced run, at the batch shape
/// its workload runs it with (`requests` stacked requests per GEMM).
struct ReplayModel {
  std::string label;
  aift::Model model;
  std::int64_t requests = 1;
  int reps = 3;
};

/// Formats a double for JSON ("null" for non-finite values).
[[nodiscard]] std::string json_number(double v);
[[nodiscard]] std::string json_string(const std::string& s);

}  // namespace perfbench
