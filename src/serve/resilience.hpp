// serve::ResiliencePolicy -- every knob that decides how the server behaves
// when the pipeline misbehaves, in one composable value.
//
// Historically these knobs were loose fields on ServerOptions
// (max_attempts, retry_backoff, breaker_failure_threshold, ...). They are
// one policy: retry classification feeds the breaker, the breaker gates the
// retried chain, shedding protects both. Grouping them lets callers build a
// policy once and reuse it across servers.
//
//   serve::ResiliencePolicy policy;
//   policy.retry.max_attempts = 5;
//   policy.breaker.failure_threshold = 3;
//   policy.shedding.high_water = 0.9;
//   serve::ServerOptions opts;
//   opts.policy = policy;
#pragma once

#include <chrono>
#include <cstdint>
#include <optional>

#include "common/types.hpp"
#include "serve/circuit_breaker.hpp"

namespace parma::serve {

/// Retry-with-backoff configuration of the pipeline attempt loop.
struct RetryPolicy {
  /// Pipeline attempts per request (1 = no retry). Retries cover transient
  /// failures -- injected faults, numerical blow-ups, allocation failure,
  /// in-flight measurement corruption -- and never override the deadline.
  Index max_attempts = 3;
  /// Backoff before attempt k+1 is backoff * 2^(k-1), capped at backoff_cap,
  /// scaled by a deterministic jitter in [0.5, 1].
  std::chrono::milliseconds backoff{1};
  std::chrono::milliseconds backoff_cap{50};
  /// Seed of the jitter stream (deterministic given submission order).
  std::uint64_t jitter_seed = 0x7a17;
};

/// Degraded-mode load shedding at admission.
struct SheddingPolicy {
  /// When the queue sits at or above this fill fraction for `sustain`, the
  /// server sheds Priority::kLow submissions (SubmitStatus::kLoadShed) until
  /// the queue falls below half the threshold. 0 disables shedding.
  Real high_water = 0.75;
  std::chrono::milliseconds sustain{50};
};

/// The composed policy: retry x breaker x shedding x default deadline.
struct ResiliencePolicy {
  RetryPolicy retry;
  /// Per-shape circuit breaker (failure_threshold 0 disables).
  BreakerOptions breaker;
  SheddingPolicy shedding;
  /// Deadline applied at admission to requests that set no timeout of their
  /// own. Unset (the default): such requests never expire.
  std::optional<std::chrono::milliseconds> default_deadline;

  /// Throws core::InvalidOptions for out-of-range values.
  void validate() const;
};

}  // namespace parma::serve
