#include "serve/stats.hpp"

#include <algorithm>
#include <cmath>

namespace parma::serve {

namespace {

void atomic_max(std::atomic<std::uint64_t>& target, std::uint64_t value) {
  std::uint64_t current = target.load(std::memory_order_relaxed);
  while (current < value &&
         !target.compare_exchange_weak(current, value, std::memory_order_relaxed)) {
  }
}

/// Bucket b's upper boundary in seconds ([2^b, 2^(b+1)) microseconds).
Real bucket_upper_seconds(std::size_t bucket) {
  return std::ldexp(1e-6, static_cast<int>(bucket) + 1);
}

/// Bucket-boundary quantile estimate over raw counts, clamped by the exact
/// observed maximum (shared by live snapshots and merged snapshots, so the
/// cluster-wide estimate is the single-server estimate over the union).
Real quantile_from(Real q, std::uint64_t total,
                   const std::array<std::uint64_t, StageStats::kBuckets>& counts,
                   Real max_seconds) {
  const auto target = static_cast<std::uint64_t>(
      std::ceil(q * static_cast<Real>(total)));
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < StageStats::kBuckets; ++b) {
    cumulative += counts[b];
    if (cumulative >= target) {
      // Upper bucket boundary, clamped by the exact observed maximum.
      return std::min(bucket_upper_seconds(b), max_seconds);
    }
  }
  return max_seconds;
}

}  // namespace

void StageStats::recompute() {
  count = 0;
  for (const std::uint64_t c : buckets) count += c;
  if (count == 0) {
    mean_seconds = p50_seconds = p99_seconds = max_seconds = 0.0;
    return;
  }
  mean_seconds = static_cast<Real>(total_nanos) * 1e-9 / static_cast<Real>(count);
  max_seconds = static_cast<Real>(max_nanos) * 1e-9;
  p50_seconds = quantile_from(0.50, count, buckets, max_seconds);
  p99_seconds = quantile_from(0.99, count, buckets, max_seconds);
}

void StageStats::merge(const StageStats& other) {
  for (std::size_t b = 0; b < kBuckets; ++b) buckets[b] += other.buckets[b];
  total_nanos += other.total_nanos;
  max_nanos = std::max(max_nanos, other.max_nanos);
  recompute();
}

std::size_t LatencyHistogram::bucket_for(Real seconds) {
  if (!(seconds > 0.0)) return 0;
  Real us = seconds * 1e6;
  std::size_t bucket = 0;
  while (us >= 2.0 && bucket + 1 < kBuckets) {
    us *= 0.5;
    ++bucket;
  }
  return bucket;
}

void LatencyHistogram::record(Real seconds) {
  if (seconds < 0.0) seconds = 0.0;
  counts_[bucket_for(seconds)].fetch_add(1, std::memory_order_relaxed);
  total_nanos_.fetch_add(static_cast<std::uint64_t>(seconds * 1e9),
                         std::memory_order_relaxed);
  atomic_max(max_nanos_, static_cast<std::uint64_t>(seconds * 1e9));
}

StageStats LatencyHistogram::snapshot() const {
  StageStats s;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    s.buckets[b] = counts_[b].load(std::memory_order_relaxed);
  }
  s.total_nanos = total_nanos_.load(std::memory_order_relaxed);
  s.max_nanos = max_nanos_.load(std::memory_order_relaxed);
  s.recompute();
  return s;
}

void Stats::merge(const Stats& other) {
  submitted += other.submitted;
  accepted += other.accepted;
  rejected_queue_full += other.rejected_queue_full;
  rejected_shutting_down += other.rejected_shutting_down;
  rejected_invalid += other.rejected_invalid;
  rejected_load_shed += other.rejected_load_shed;
  completed_ok += other.completed_ok;
  deadline_exceeded += other.deadline_exceeded;
  cancelled += other.cancelled;
  solver_failed += other.solver_failed;
  invalid_input += other.invalid_input;
  breaker_open += other.breaker_open;
  degraded_results += other.degraded_results;
  retries += other.retries;
  retry_successes += other.retry_successes;
  breaker_opened_events += other.breaker_opened_events;
  degraded_entered += other.degraded_entered;
  solver_not_converged += other.solver_not_converged;
  solver_iterations += other.solver_iterations;
  cg_iterations += other.cg_iterations;
  masked_entries += other.masked_entries;
  auto_masked_entries += other.auto_masked_entries;
  outliers_downweighted += other.outliers_downweighted;
  numerical_breakdowns += other.numerical_breakdowns;
  breaker_open_shapes += other.breaker_open_shapes;
  degraded = degraded || other.degraded;
  batches += other.batches;
  batched_requests += other.batched_requests;
  max_batch = std::max(max_batch, other.max_batch);
  mean_batch_size = (batches > 0)
      ? static_cast<Real>(batched_requests) / static_cast<Real>(batches)
      : 0.0;
  queue_high_water = std::max(queue_high_water, other.queue_high_water);
  queue_wait.merge(other.queue_wait);
  form.merge(other.form);
  solve.merge(other.solve);
  reconstruct.merge(other.reconstruct);
  end_to_end.merge(other.end_to_end);
}

void StatsCollector::on_solve(Index iterations, bool converged, Index cg_iterations) {
  solver_iterations_.fetch_add(static_cast<std::uint64_t>(iterations),
                               std::memory_order_relaxed);
  if (cg_iterations > 0) {
    cg_iterations_.fetch_add(static_cast<std::uint64_t>(cg_iterations),
                             std::memory_order_relaxed);
  }
  if (!converged) solver_not_converged_.fetch_add(1, std::memory_order_relaxed);
}

void StatsCollector::on_quality(Index masked_entries, Index auto_masked, Index outliers,
                                bool numerical_breakdown) {
  if (masked_entries > 0) {
    masked_entries_.fetch_add(static_cast<std::uint64_t>(masked_entries),
                              std::memory_order_relaxed);
  }
  if (auto_masked > 0) {
    auto_masked_entries_.fetch_add(static_cast<std::uint64_t>(auto_masked),
                                   std::memory_order_relaxed);
  }
  if (outliers > 0) {
    outliers_downweighted_.fetch_add(static_cast<std::uint64_t>(outliers),
                                     std::memory_order_relaxed);
  }
  if (numerical_breakdown) numerical_breakdowns_.fetch_add(1, std::memory_order_relaxed);
}

void StatsCollector::on_batch(std::size_t size) {
  batches_.fetch_add(1, std::memory_order_relaxed);
  batched_requests_.fetch_add(size, std::memory_order_relaxed);
  atomic_max(max_batch_, size);
}

Stats StatsCollector::snapshot(std::size_t queue_high_water,
                               std::uint64_t breaker_opened_events) const {
  Stats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected_queue_full = rejected_queue_full_.load(std::memory_order_relaxed);
  s.rejected_shutting_down = rejected_shutting_down_.load(std::memory_order_relaxed);
  s.rejected_invalid = rejected_invalid_.load(std::memory_order_relaxed);
  s.rejected_load_shed = rejected_load_shed_.load(std::memory_order_relaxed);
  s.completed_ok = completed_ok_.load(std::memory_order_relaxed);
  s.deadline_exceeded = deadline_exceeded_.load(std::memory_order_relaxed);
  s.cancelled = cancelled_.load(std::memory_order_relaxed);
  s.solver_failed = solver_failed_.load(std::memory_order_relaxed);
  s.invalid_input = invalid_input_.load(std::memory_order_relaxed);
  s.breaker_open = breaker_open_.load(std::memory_order_relaxed);
  s.degraded_results = degraded_results_.load(std::memory_order_relaxed);
  s.retries = retries_.load(std::memory_order_relaxed);
  s.retry_successes = retry_successes_.load(std::memory_order_relaxed);
  s.breaker_opened_events = breaker_opened_events;
  s.degraded_entered = degraded_entered_.load(std::memory_order_relaxed);
  s.solver_not_converged = solver_not_converged_.load(std::memory_order_relaxed);
  s.solver_iterations = solver_iterations_.load(std::memory_order_relaxed);
  s.cg_iterations = cg_iterations_.load(std::memory_order_relaxed);
  s.masked_entries = masked_entries_.load(std::memory_order_relaxed);
  s.auto_masked_entries = auto_masked_entries_.load(std::memory_order_relaxed);
  s.outliers_downweighted = outliers_downweighted_.load(std::memory_order_relaxed);
  s.numerical_breakdowns = numerical_breakdowns_.load(std::memory_order_relaxed);
  s.batches = batches_.load(std::memory_order_relaxed);
  s.batched_requests = batched_requests_.load(std::memory_order_relaxed);
  s.max_batch = max_batch_.load(std::memory_order_relaxed);
  s.mean_batch_size = (s.batches > 0)
      ? static_cast<Real>(s.batched_requests) / static_cast<Real>(s.batches)
      : 0.0;
  s.queue_high_water = queue_high_water;
  s.queue_wait = queue_wait.snapshot();
  s.form = form.snapshot();
  s.solve = solve.snapshot();
  s.reconstruct = reconstruct.snapshot();
  s.end_to_end = end_to_end.snapshot();
  return s;
}

}  // namespace parma::serve
