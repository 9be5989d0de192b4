// In-memory span recorder for traced benchmark runs.
//
// A span is one timed call into a Parma layer, recorded from the benchmark's
// side of the call: name, start, end, the span that caused it, and the id of
// the request (or benchmark op) it belongs to. Spans stay in memory while
// the benchmark runs and are written out once, as JSON lines, at exit.
//
// Span doubles as the benchmark's stopwatch: finish() returns the elapsed
// seconds whether or not the tracer is recording, so untraced and traced
// runs time their calls with the same code and differ only in what is kept.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

class Tracer {
 public:
  using Attrs = std::vector<std::pair<const char*, double>>;

  struct Record {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   ///< 0 = root
    std::uint64_t request = 0;  ///< op / request id shared by related spans
    const char* name = "";
    Clock::time_point start;
    Clock::time_point end;
    Attrs attrs;                ///< counts recorded at the same boundary
  };

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {
    if (enabled_) records_.reserve(1 << 14);
  }

  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  [[nodiscard]] std::size_t size() const { return records_.size(); }

  /// Ids are handed out before a span ends, so children can name a parent
  /// that is still open.
  std::uint64_t next_id() { return ++last_id_; }

  void record(Record r) {
    if (enabled_) append(std::move(r));
  }

  /// Keeps `r` whether or not recording is on now: for a span whose op was
  /// traced when it began.
  void append(Record r) { records_.push_back(std::move(r)); }

  /// One JSON object per line; times in microseconds since the tracer began.
  void write_jsonl(const std::string& path) const {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot write spans to " + path);
    const auto us = [&](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin_).count();
    };
    for (const Record& r : records_) {
      os << "{\"id\":" << r.id << ",\"parent\":" << r.parent << ",\"request\":" << r.request
         << ",\"name\":\"" << r.name << "\",\"start_us\":" << us(r.start)
         << ",\"end_us\":" << us(r.end);
      if (!r.attrs.empty()) {
        os << ",\"attrs\":{";
        for (std::size_t i = 0; i < r.attrs.size(); ++i) {
          os << (i == 0 ? "" : ",") << '"' << r.attrs[i].first << "\":" << r.attrs[i].second;
        }
        os << '}';
      }
      os << "}\n";
    }
  }

 private:
  bool enabled_;
  Clock::time_point origin_;
  std::uint64_t last_id_ = 0;
  std::vector<Record> records_;
};

/// RAII span around one layer call. finish() (or the destructor) closes it.
class Span {
 public:
  Span(Tracer& tracer, const char* name, std::uint64_t parent = 0, std::uint64_t request = 0)
      : tracer_(tracer) {
    record_.id = tracer.next_id();
    record_.parent = parent;
    record_.request = request;
    record_.name = name;
    record_.start = Clock::now();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (!done_) (void)finish();
  }

  [[nodiscard]] std::uint64_t id() const { return record_.id; }

  void attr(const char* key, double value) {
    if (tracer_.enabled()) record_.attrs.emplace_back(key, value);
  }

  /// Closes the span and returns its duration in seconds.
  double finish() {
    record_.end = Clock::now();
    done_ = true;
    const double seconds = seconds_between(record_.start, record_.end);
    tracer_.record(std::move(record_));
    return seconds;
  }

 private:
  Tracer& tracer_;
  Tracer::Record record_;
  bool done_ = false;
};

}  // namespace perfbench
