// Shared pieces of the benchmark workloads: arguments, seeded device
// generation, ground-truth checks, and the metric record every workload
// fills in.
//
// Every workload reports the same end-to-end metrics (see main.cpp) over its
// own notion of one op, and whichever per-layer metrics its layers produce;
// per-layer metrics of layers a workload bypasses are reported as 0.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "circuit/crossbar.hpp"
#include "common/rng.hpp"
#include "mea/generator.hpp"
#include "mea/measurement.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

using parma::Index;

/// Exact measurements let every solver recover the field to ~1e-6; a
/// recovered field farther than this from the generated truth is a miss.
inline constexpr double kMaxRelativeError = 1e-4;

/// Times each workload sets itself up; setup_s is the median.
inline constexpr int kSetupRepeats = 15;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< JSON-lines span dump (traced runs)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< sample count, percentile rank, ...
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;        ///< misses, non-kOk replies, transport errors
  std::uint64_t wrong = 0;         ///< of those, answers that missed the truth
  std::string invalid_reason;      ///< non-empty: the run cannot be trusted
  std::vector<Metric> end_to_end;  ///< untraced ops
  std::vector<Metric> traced;      ///< the same metrics over the traced ops
  std::vector<Metric> per_layer;
};

/// One generated device: the measurement the program sees, and the truth
/// only the benchmark sees.
struct Device {
  Index n = 0;
  parma::mea::Measurement measurement;
  parma::circuit::ResistanceGrid truth{1, 1};
};

/// Square n x n device with two anomaly blobs and exact measurements, drawn
/// from (seed, stream, n) so the same seed always yields the same inputs.
inline Device make_device(Index n, std::uint64_t seed, std::uint64_t stream) {
  parma::Rng rng(seed * 0x9E3779B97F4A7C15ULL + stream * 1000003ULL +
                 static_cast<std::uint64_t>(n));
  const parma::mea::DeviceSpec spec = parma::mea::square_device(n);
  parma::mea::GeneratorOptions options = parma::mea::random_scenario(spec, 2, rng);
  options.jitter_fraction = 0.01;
  Device device;
  device.n = n;
  device.truth = parma::mea::generate_field(spec, options, rng);
  device.measurement = parma::mea::measure_exact(spec, device.truth);
  return device;
}

inline double max_relative_error(const std::vector<double>& recovered,
                                 const parma::circuit::ResistanceGrid& truth) {
  if (recovered.size() != truth.flat().size()) return INFINITY;
  double worst = 0.0;
  for (std::size_t e = 0; e < recovered.size(); ++e) {
    const double err = std::abs(recovered[e] - truth.flat()[e]) / std::abs(truth.flat()[e]);
    if (!std::isfinite(err)) return INFINITY;
    worst = std::max(worst, err);
  }
  return worst;
}

inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Verified ops per second of busy time, for a closed loop with one caller.
inline double closed_loop_goodput(std::size_t verified, const std::vector<double>& op_seconds) {
  const double busy = std::accumulate(op_seconds.begin(), op_seconds.end(), 0.0);
  return busy > 0.0 ? static_cast<double>(verified) / busy : 0.0;
}

inline std::string count_note(std::size_t n) { return "n=" + std::to_string(n); }

/// The end-to-end metrics every workload reports, from its op latencies in
/// seconds, its setup times, and the verified ops per second it achieved.
inline std::vector<Metric> end_to_end_metrics(const std::vector<double>& op_seconds,
                                              const std::vector<double>& setup_seconds,
                                              double goodput_per_s) {
  std::vector<Metric> out;
  char note[128];
  const Quartiles setup = quartiles(setup_seconds);
  std::snprintf(note, sizeof note, "n=%zu q1=%.4g q3=%.4g", setup_seconds.size(), setup.q1,
                setup.q3);
  out.push_back({"setup_s", median(setup_seconds), "s", note});
  if (!op_seconds.empty()) {
    std::vector<double> ms(op_seconds.size());
    std::transform(op_seconds.begin(), op_seconds.end(), ms.begin(),
                   [](double s) { return s * 1e3; });
    std::snprintf(note, sizeof note, "n=%zu iqr=%.4g", ms.size(), quartiles(ms).iqr());
    out.push_back({"op_p50_ms", median(ms), "ms", note});
    const Tail t = tail(ms);
    std::snprintf(note, sizeof note, "p%.2f of %zu, %zu beyond", t.percentile, t.samples,
                  t.beyond);
    out.push_back({"op_tail_ms", t.value, "ms", note});
  }
  out.push_back({"goodput_per_s", goodput_per_s, "1/s", ""});
  out.push_back({"peak_rss_mb", peak_rss_mb(), "MB", ""});
  return out;
}

inline double find_metric(const std::vector<Metric>& metrics, const std::string& name) {
  for (const Metric& m : metrics) {
    if (m.name == name) return m.value;
  }
  return NAN;
}

/// Percent change of the traced ops' median time over the untraced ones'.
/// A traced run interleaves the two, so both see the same host load.
inline Metric trace_overhead(const Outcome& outcome) {
  const double untraced = find_metric(outcome.end_to_end, "op_p50_ms");
  const double traced = find_metric(outcome.traced, "op_p50_ms");
  return {"trace.overhead_pct", 100.0 * (traced - untraced) / untraced, "%",
          "interleaved traced vs untraced op_p50_ms"};
}

}  // namespace perfbench
