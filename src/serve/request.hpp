// parma::serve -- request/response types of the parametrization service.
//
// A ParametrizeRequest is one unit of serving work: a measurement sweep plus
// the strategy configuration to form it under, the inverse-solver options for
// the solve stage, and an optional deadline. The server completes every
// admitted request with a ParametrizeResult whose `status` says what
// happened; a failed or expired request never takes down the server.
#pragma once

#include <chrono>
#include <optional>
#include <string>

#include "core/engine.hpp"
#include "core/strategy.hpp"
#include "mea/measurement.hpp"
#include "serve/status.hpp"
#include "solver/inverse_solver.hpp"

namespace parma::serve {

/// Monotonic clock used for deadlines and latency accounting.
using Clock = std::chrono::steady_clock;

// RequestStatus / SubmitStatus (and their *_name / to_string helpers) live in
// serve/status.hpp so status-only clients need not pull in the engine stack.

/// Scheduling weight under degraded mode: when the admission queue stays at
/// its high-water mark, kLow work is shed at admission (kLoadShed) so the
/// server keeps absorbing the traffic that matters.
enum class Priority { kLow = 0, kNormal = 1, kHigh = 2 };

const char* priority_name(Priority priority);

/// Minimum acceptable quality of a served recovery. A request whose pipeline
/// succeeds but whose QualityReport violates any enabled bound completes as
/// kDegradedResult instead of kOk: the caller still gets the recovery, plus a
/// machine-readable signal that it came from dirty input or shaky numerics.
/// The defaults disable every bound (kOk behaves exactly as before).
struct QualityFloor {
  /// Max fraction of Z entries masked out (missing or auto-masked), in [0, 1].
  Real max_masked_fraction = 1.0;
  /// Max fraction of unmasked entries the robust loss down-weighted below 1/2.
  Real max_outlier_fraction = 1.0;
  /// Max acceptable diagonal condition estimate of the normal matrix
  /// (solver::diagonal_condition_estimate); 0 disables the bound.
  Real max_condition_estimate = 0.0;
  /// Demote non-converged (but otherwise successful) solves.
  bool require_convergence = false;
  /// Demote solves that terminated with kNumericalBreakdown but still
  /// produced a finite recovery.
  bool demote_on_breakdown = false;

  /// True when any bound is active (the server skips the check otherwise).
  [[nodiscard]] bool enabled() const {
    return max_masked_fraction < 1.0 || max_outlier_fraction < 1.0 ||
           max_condition_estimate > 0.0 || require_convergence || demote_on_breakdown;
  }
};

/// Input/solve quality of one completed request, for kOk and kDegradedResult.
struct QualityReport {
  Index masked_entries = 0;       ///< Z entries excluded from the fit (total)
  Index auto_masked = 0;          ///< of those, masked by auto_mask_invalid
  Real masked_fraction = 0.0;     ///< masked_entries / total entries
  Index outlier_entries = 0;      ///< unmasked entries down-weighted below 1/2
  Real outlier_fraction = 0.0;    ///< outlier_entries / unmasked entries
  Real robust_scale = 0.0;        ///< final IRLS scale (0 when robust off)
  Real condition_estimate = 0.0;  ///< worst per-iteration diagonal estimate
  bool numerical_breakdown = false;  ///< solver hit kNumericalBreakdown
  bool converged = false;
  bool degraded = false;          ///< this report tripped the QualityFloor
};

/// One unit of serving work.
struct ParametrizeRequest {
  mea::Measurement measurement;
  /// Formation configuration; validated once at admission. Serving runs on
  /// real threads, so timing_mode must stay kRealThreads.
  core::StrategyOptions options;
  /// Solve-stage configuration for solver::recover_resistances (validated by
  /// the solver inside the pipeline; a violation surfaces as kSolverFailed,
  /// not as an admission reject).
  solver::InverseOptions inverse;
  /// Relative deadline, converted to an absolute one at admission. A request
  /// whose deadline passes while queued or between stages completes with
  /// kDeadlineExceeded.
  std::optional<std::chrono::milliseconds> timeout;
  /// When set, the reconstruct stage also thresholds the recovered field at
  /// this resistance (kOhm) and reports the anomaly count.
  std::optional<Real> anomaly_threshold;
  /// Degraded-mode shedding class (see Priority).
  Priority priority = Priority::kNormal;
  /// When set, non-finite or non-positive Z entries are masked out (via
  /// mea::mask_invalid_entries) instead of rejecting the request as
  /// kInvalidInput -- the robust path for sweeps with dropped electrodes.
  /// Applied at admission and again per attempt (so injected faults are
  /// also recovered). A sweep whose every entry is invalid still rejects.
  bool auto_mask_invalid = false;
  /// Minimum acceptable result quality; violations complete the request as
  /// kDegradedResult (recovery still returned). Defaults: no bounds.
  QualityFloor quality_floor;
};

/// Completion record of one request.
struct ParametrizeResult {
  RequestStatus status = RequestStatus::kRejected;
  std::string message;             ///< failure detail for non-kOk statuses

  /// The recovery (valid when status == kOk or kDegradedResult).
  solver::InverseResult inverse;
  /// Topology report of the device shape, memoized in the server's
  /// FormationCache across requests/batches (valid when kOk).
  core::TopologyReport topology;
  /// Anomalous cells above `anomaly_threshold` (when requested; kOk only).
  Index anomalies = 0;
  /// Input/solve quality of the attempt that produced `inverse` (valid for
  /// kOk and kDegradedResult).
  QualityReport quality;

  // Formation summary (the equation system itself is not returned).
  Index equations = 0;
  std::uint64_t equation_bytes = 0;

  // Per-stage wall-clock seconds and batch placement.
  Real queue_seconds = 0.0;   ///< admission to batch pickup
  Real form_seconds = 0.0;
  Real solve_seconds = 0.0;
  Real reconstruct_seconds = 0.0;
  Index batch_size = 0;       ///< size of the batch this request rode in
  /// Pipeline attempts this request took (1 = no retry). Stage timings above
  /// are from the final attempt.
  Index attempts = 0;

  [[nodiscard]] bool ok() const { return status == RequestStatus::kOk; }
  /// kOk or kDegradedResult: `inverse` holds a usable recovery either way.
  [[nodiscard]] bool has_result() const {
    return status == RequestStatus::kOk || status == RequestStatus::kDegradedResult;
  }
};

}  // namespace parma::serve
