#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * n));
  return samples[std::min(samples.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t mid = samples.size() / 2;
  return samples.size() % 2 == 1 ? samples[mid]
                                 : 0.5 * (samples[mid - 1] + samples[mid]);
}

std::int64_t SpanRecorder::begin(const std::string& name, std::int64_t parent,
                                 std::int64_t request, std::int64_t layer) {
  if (!enabled_) return -1;
  const auto now = Clock::now();
  spans_.push_back(Span{name, now, now, parent, request, layer});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanRecorder::end(std::int64_t id) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end = Clock::now();
}

void SpanRecorder::end_at(std::int64_t id, Clock::time_point t) {
  if (id >= 0) spans_[static_cast<std::size_t>(id)].end = t;
}

std::vector<double> SpanRecorder::self_seconds() const {
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                s.end);
    }
  }
  std::vector<double> self(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent.
    double covered = 0.0;
    Clock::time_point cur_lo{};
    Clock::time_point cur_hi{};
    bool open = false;
    for (auto [lo, hi] : kids) {
      lo = std::max(lo, spans_[i].start);
      hi = std::min(hi, spans_[i].end);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += seconds_between(cur_lo, cur_hi);
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += seconds_between(cur_lo, cur_hi);
    self[i] = std::max(0.0, seconds_between(spans_[i].start, spans_[i].end) -
                                covered);
  }
  return self;
}

void SpanRecorder::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write spans to " + path);
  const Clock::time_point origin =
      spans_.empty() ? Clock::time_point{} : spans_.front().start;
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts = seconds_between(origin, s.start) * 1e6;
    const double dur = seconds_between(s.start, s.end) * 1e6;
    out << (i == 0 ? "" : ",\n") << "{\"name\": " << json_string(s.name)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
        << json_number(ts) << ", \"dur\": " << json_number(dur)
        << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
        << ", \"request\": " << s.request << ", \"layer\": " << s.layer
        << "}}";
  }
  out << "\n]}\n";
}

bool same_result(const aift::SessionResult& a, const aift::SessionResult& b) {
  const auto& x = a.output;
  const auto& y = b.output;
  if (x.rows() != y.rows() || x.cols() != y.cols()) return false;
  if (std::memcmp(x.data(), y.data(),
                  static_cast<std::size_t>(x.size()) * sizeof(aift::half_t)) !=
      0) {
    return false;
  }
  if (a.layers.size() != b.layers.size()) return false;
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    const auto& p = a.layers[i];
    const auto& q = b.layers[i];
    if (p.name != q.name || p.scheme != q.scheme ||
        p.executions != q.executions || p.detections != q.detections ||
        p.unrecovered != q.unrecovered ||
        std::memcmp(&p.output_digest, &q.output_digest, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

void add_latency_counters(LayerCounters& lc, const std::vector<double>& ms) {
  std::vector<double> completed;
  for (const double v : ms) {
    if (std::isfinite(v)) completed.push_back(v);
  }
  lc["request.lat_p99_ms"] = {percentile(completed, 99), "ms"};
  lc["request.samples"] = {static_cast<double>(completed.size()), "count"};
}

void Outcome::fail(const std::string& why) {
  correct = false;
  errors.push_back(why);
  std::fprintf(stderr, "perfbench: CORRECTNESS FAILURE: %s\n", why.c_str());
}

void Outcome::metric(const std::string& name, double value,
                     const std::string& unit) {
  metrics.push_back(Metric{name, value, unit});
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  // %.17g round-trips every double; the C locale is never changed here.
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
