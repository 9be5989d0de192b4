// Serving statistics: lock-free counters plus per-stage latency histograms,
// snapshotable while the server runs.
//
// Latencies go into fixed log2-bucketed histograms (1 us granularity at the
// bottom, ~9 days at the top), so p50/p99 are deterministic bucket-boundary
// estimates with no per-request allocation and no lock on the hot path.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>

#include "common/types.hpp"

namespace parma::serve {

/// Snapshot of one stage's latency distribution. Alongside the derived
/// summary (mean/p50/p99/max) the snapshot carries the raw histogram state
/// it was derived from, so two snapshots merge EXACTLY: bucket counts and
/// nanosecond totals add, maxima take the max, and the summary is recomputed
/// from the merged state -- a cluster-wide p99 is the same bucket-boundary
/// estimate one server observing all requests would have reported.
struct StageStats {
  /// Mirrors LatencyHistogram's bucket layout (log2 us buckets).
  static constexpr std::size_t kBuckets = 40;

  std::uint64_t count = 0;
  Real mean_seconds = 0.0;
  Real p50_seconds = 0.0;  ///< bucket-boundary estimate
  Real p99_seconds = 0.0;  ///< bucket-boundary estimate
  Real max_seconds = 0.0;  ///< exact

  // Raw histogram state (the merge substrate).
  std::array<std::uint64_t, kBuckets> buckets{};
  std::uint64_t total_nanos = 0;
  std::uint64_t max_nanos = 0;

  /// Adds `other`'s raw state into this snapshot and recomputes the summary.
  void merge(const StageStats& other);
  /// Re-derives count/mean/p50/p99/max from the raw state.
  void recompute();
};

/// Snapshot of the whole server (Server::stats()).
struct Stats {
  // Admission counters.
  std::uint64_t submitted = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_shutting_down = 0;
  std::uint64_t rejected_invalid = 0;
  std::uint64_t rejected_load_shed = 0;  ///< degraded-mode fast rejects

  // Completion counters (one per admitted request, by terminal status).
  std::uint64_t completed_ok = 0;
  std::uint64_t deadline_exceeded = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t solver_failed = 0;
  std::uint64_t invalid_input = 0;   ///< corrupt measurement survived retries
  std::uint64_t breaker_open = 0;    ///< fast-failed by an open breaker
  std::uint64_t degraded_results = 0;  ///< completions demoted by a QualityFloor

  // Resilience counters.
  std::uint64_t retries = 0;             ///< extra pipeline attempts
  std::uint64_t retry_successes = 0;     ///< kOk completions that needed > 1 attempt
  std::uint64_t breaker_opened_events = 0;  ///< closed/half-open -> open transitions
  std::uint64_t degraded_entered = 0;    ///< degraded-mode entries

  // Solver counters, over completions that produced a result (kOk or
  // kDegradedResult).
  std::uint64_t solver_not_converged = 0;  ///< such completions with converged=false
  std::uint64_t solver_iterations = 0;     ///< total outer iterations of their solves
  std::uint64_t cg_iterations = 0;         ///< total CG iterations of their solves

  // Input-quality counters (masking + robust estimation), over completions
  // that produced a result (kOk or kDegradedResult).
  std::uint64_t masked_entries = 0;        ///< Z entries excluded from fits
  std::uint64_t auto_masked_entries = 0;   ///< of those, auto-masked invalids
  std::uint64_t outliers_downweighted = 0; ///< entries IRLS pushed below w=1/2
  std::uint64_t numerical_breakdowns = 0;  ///< solves ending in breakdown

  // Live gauges (filled by Server::stats()).
  std::size_t breaker_open_shapes = 0;  ///< shapes currently open/half-open
  bool degraded = false;                ///< degraded mode active right now

  // Batching.
  std::uint64_t batches = 0;
  std::uint64_t batched_requests = 0;  ///< Σ batch sizes (merge substrate)
  std::uint64_t max_batch = 0;
  Real mean_batch_size = 0.0;  ///< batched_requests / batches

  /// Deepest the admission queue has ever been.
  std::size_t queue_high_water = 0;

  // Per-stage latency distributions.
  StageStats queue_wait;    ///< admission -> batch pickup
  StageStats form;          ///< equation formation
  StageStats solve;         ///< inverse recovery
  StageStats reconstruct;   ///< result assembly + anomaly thresholding
  StageStats end_to_end;    ///< admission -> completion

  [[nodiscard]] std::uint64_t rejected() const {
    return rejected_queue_full + rejected_shutting_down + rejected_invalid +
           rejected_load_shed;
  }
  [[nodiscard]] std::uint64_t completed() const {
    return completed_ok + deadline_exceeded + cancelled + solver_failed +
           invalid_input + breaker_open + degraded_results;
  }

  /// Folds another server's snapshot into this one (cluster-wide view).
  /// Counters add exactly; histograms merge bucket-wise (see StageStats);
  /// mean_batch_size is re-derived from the summed batch totals; max_batch
  /// and queue_high_water take the max (they are per-process high-water
  /// marks, not flows); `degraded` ORs and breaker_open_shapes adds (shapes
  /// are per-worker breaker boards).
  void merge(const Stats& other);
};

/// Thread-safe latency histogram; record() is wait-free (relaxed atomics).
class LatencyHistogram {
 public:
  void record(Real seconds);
  [[nodiscard]] StageStats snapshot() const;

 private:
  /// Bucket b covers [2^b, 2^(b+1)) microseconds; b = 0 also absorbs sub-us.
  static constexpr std::size_t kBuckets = StageStats::kBuckets;
  [[nodiscard]] static std::size_t bucket_for(Real seconds);

  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
  std::atomic<std::uint64_t> total_nanos_{0};
  std::atomic<std::uint64_t> max_nanos_{0};
};

/// The server's live accumulator; every member is safe to bump from any
/// worker/submitter thread while stats() snapshots concurrently.
class StatsCollector {
 public:
  void on_submitted() { submitted_.fetch_add(1, std::memory_order_relaxed); }
  void on_accepted() { accepted_.fetch_add(1, std::memory_order_relaxed); }
  void on_rejected_queue_full() { rejected_queue_full_.fetch_add(1, std::memory_order_relaxed); }
  void on_rejected_shutting_down() { rejected_shutting_down_.fetch_add(1, std::memory_order_relaxed); }
  void on_rejected_invalid() { rejected_invalid_.fetch_add(1, std::memory_order_relaxed); }
  void on_rejected_load_shed() { rejected_load_shed_.fetch_add(1, std::memory_order_relaxed); }
  void on_completed_ok() { completed_ok_.fetch_add(1, std::memory_order_relaxed); }
  void on_deadline_exceeded() { deadline_exceeded_.fetch_add(1, std::memory_order_relaxed); }
  void on_cancelled() { cancelled_.fetch_add(1, std::memory_order_relaxed); }
  void on_solver_failed() { solver_failed_.fetch_add(1, std::memory_order_relaxed); }
  void on_invalid_input() { invalid_input_.fetch_add(1, std::memory_order_relaxed); }
  void on_breaker_open() { breaker_open_.fetch_add(1, std::memory_order_relaxed); }
  void on_degraded_result() { degraded_results_.fetch_add(1, std::memory_order_relaxed); }
  void on_retry() { retries_.fetch_add(1, std::memory_order_relaxed); }
  void on_retry_success() { retry_successes_.fetch_add(1, std::memory_order_relaxed); }
  void on_degraded_entered() { degraded_entered_.fetch_add(1, std::memory_order_relaxed); }
  /// Solver outcome of a completion that produced a result (kOk or
  /// kDegradedResult): outer iterations, convergence, and the total CG
  /// iterations its linear solves spent.
  void on_solve(Index iterations, bool converged, Index cg_iterations);
  /// Quality outcome of a completion that produced a result (kOk or
  /// kDegradedResult): masking census, robust down-weighting, breakdowns.
  void on_quality(Index masked_entries, Index auto_masked, Index outliers,
                  bool numerical_breakdown);
  void on_batch(std::size_t size);

  LatencyHistogram queue_wait;
  LatencyHistogram form;
  LatencyHistogram solve;
  LatencyHistogram reconstruct;
  LatencyHistogram end_to_end;

  /// `breaker_opened_events` comes from the BreakerBoard (the breaker owns
  /// its transition count); the live gauges are filled by Server::stats().
  [[nodiscard]] Stats snapshot(std::size_t queue_high_water,
                               std::uint64_t breaker_opened_events = 0) const;

 private:
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_queue_full_{0};
  std::atomic<std::uint64_t> rejected_shutting_down_{0};
  std::atomic<std::uint64_t> rejected_invalid_{0};
  std::atomic<std::uint64_t> rejected_load_shed_{0};
  std::atomic<std::uint64_t> completed_ok_{0};
  std::atomic<std::uint64_t> deadline_exceeded_{0};
  std::atomic<std::uint64_t> cancelled_{0};
  std::atomic<std::uint64_t> solver_failed_{0};
  std::atomic<std::uint64_t> invalid_input_{0};
  std::atomic<std::uint64_t> breaker_open_{0};
  std::atomic<std::uint64_t> degraded_results_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> retry_successes_{0};
  std::atomic<std::uint64_t> degraded_entered_{0};
  std::atomic<std::uint64_t> solver_not_converged_{0};
  std::atomic<std::uint64_t> solver_iterations_{0};
  std::atomic<std::uint64_t> cg_iterations_{0};
  std::atomic<std::uint64_t> masked_entries_{0};
  std::atomic<std::uint64_t> auto_masked_entries_{0};
  std::atomic<std::uint64_t> outliers_downweighted_{0};
  std::atomic<std::uint64_t> numerical_breakdowns_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_requests_{0};
  std::atomic<std::uint64_t> max_batch_{0};
};

}  // namespace parma::serve
