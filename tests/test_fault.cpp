// Chaos suite for the robustness stack: the deterministic fault injector
// (src/fault), the CG -> Tikhonov -> dense solver fallback ladder
// (src/solver/fallback), and the resilient serving behaviors built on them
// (retry with backoff, per-shape circuit breaker, degraded-mode shedding,
// typed invalid-input rejection).
//
// The storm tests assert the robustness contract end to end: under any
// armed combination of injection points the server never crashes or hangs,
// every admitted request completes with a definite status exactly once, the
// stats conserve (accepted == completed), and a run whose injected faults
// are all retried away is bit-identical to a fault-free run. Carries the
// `tsan` ctest label; the Chaos.* tests are additionally registered under
// the `chaos` label with three distinct PARMA_CHAOS_SEED values.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <future>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "core/session.hpp"
#include "fault/injector.hpp"
#include "linalg/dense_solve.hpp"
#include "linalg/iterative.hpp"
#include "linalg/sparse_matrix.hpp"
#include "mea/generator.hpp"
#include "mea/measurement.hpp"
#include "serve/server.hpp"
#include "solver/fallback.hpp"
#include "solver/full_system_solver.hpp"
#include "solver/inverse_solver.hpp"

namespace parma {
namespace {

using namespace std::chrono_literals;
using serve::ParametrizeRequest;
using serve::ParametrizeResult;
using serve::Priority;
using serve::RequestStatus;
using serve::Server;
using serve::ServerOptions;
using serve::SolveMethod;
using serve::Stats;
using serve::SubmitStatus;
using serve::Ticket;

mea::Measurement make_measurement(Index n, std::uint64_t seed = 7) {
  Rng rng(seed + static_cast<std::uint64_t>(n));
  const mea::DeviceSpec spec = mea::square_device(n);
  const auto truth = mea::generate_field(spec, mea::random_scenario(spec, 1, rng), rng);
  return mea::measure_exact(spec, truth);
}

ParametrizeRequest make_request(Index n, Index iterations = 2) {
  ParametrizeRequest request;
  request.measurement = make_measurement(n);
  request.options.strategy = core::Strategy::kFineGrained;
  request.options.workers = 2;
  request.options.chunk = 2;
  request.options.keep_system = false;
  request.inverse.max_iterations = iterations;
  return request;
}

linalg::CsrMatrix spd_tridiagonal(Index n) {
  linalg::CooBuilder coo(n, n);
  for (Index i = 0; i < n; ++i) {
    coo.add(i, i, 4.0);
    if (i + 1 < n) {
      coo.add(i, i + 1, -1.0);
      coo.add(i + 1, i, -1.0);
    }
  }
  return coo.build();
}

// ---------------------------------------------------------------- injector

TEST(Injector, DisabledByDefaultAndZeroArmed) {
  ASSERT_EQ(fault::installed(), nullptr);
  EXPECT_FALSE(fault::should_fire(fault::Point::kTaskFailure));

  fault::Injector injector(42);  // constructed but nothing armed
  for (int i = 0; i < 16; ++i) {
    EXPECT_FALSE(injector.should_fire(fault::Point::kCgNonConvergence));
  }
  EXPECT_EQ(injector.queries(fault::Point::kCgNonConvergence), 16u);
  EXPECT_EQ(injector.total_fires(), 0u);
}

TEST(Injector, DecisionsAreDeterministicInSeedPointAndQuery) {
  const auto sequence = [](std::uint64_t seed) {
    fault::Injector injector(seed);
    injector.arm(fault::Point::kTaskFailure, {.probability = 0.5});
    std::vector<bool> fired;
    fired.reserve(256);
    for (int i = 0; i < 256; ++i) {
      fired.push_back(injector.should_fire(fault::Point::kTaskFailure));
    }
    return fired;
  };
  EXPECT_EQ(sequence(7), sequence(7));    // same seed, same schedule
  EXPECT_NE(sequence(7), sequence(8));    // different seed, different schedule
}

TEST(Injector, ScheduleBoundsFiring) {
  fault::Injector injector(3);
  fault::Schedule schedule;
  schedule.probability = 1.0;
  schedule.max_fires = 3;
  schedule.skip_first = 2;
  injector.arm(fault::Point::kAllocFailure, schedule);

  std::vector<bool> fired;
  for (int i = 0; i < 10; ++i) {
    fired.push_back(injector.should_fire(fault::Point::kAllocFailure));
  }
  EXPECT_EQ(fired, (std::vector<bool>{false, false, true, true, true,
                                      false, false, false, false, false}));
  EXPECT_EQ(injector.fires(fault::Point::kAllocFailure), 3u);
  EXPECT_EQ(injector.queries(fault::Point::kAllocFailure), 10u);
}

TEST(Injector, ScopedInstallUninstallsOnExit) {
  ASSERT_EQ(fault::installed(), nullptr);
  {
    fault::ScopedInjector chaos(1);
    chaos->arm(fault::Point::kTaskFailure, {.probability = 1.0});
    EXPECT_EQ(fault::installed(), &chaos.get());
    EXPECT_TRUE(fault::should_fire(fault::Point::kTaskFailure));
  }
  EXPECT_EQ(fault::installed(), nullptr);
  EXPECT_FALSE(fault::should_fire(fault::Point::kTaskFailure));
}

TEST(Injector, PointNamesAreStable) {
  EXPECT_STREQ(fault::point_name(fault::Point::kDropMeasurement), "drop-measurement");
  EXPECT_STREQ(fault::point_name(fault::Point::kNoiseMeasurement), "noise-measurement");
  EXPECT_STREQ(fault::point_name(fault::Point::kCgNonConvergence), "cg-non-convergence");
  EXPECT_STREQ(fault::point_name(fault::Point::kTaskFailure), "task-failure");
  EXPECT_STREQ(fault::point_name(fault::Point::kSlowTask), "slow-task");
  EXPECT_STREQ(fault::point_name(fault::Point::kAllocFailure), "alloc-failure");
}

// ---------------------------------------------------------- fallback ladder

TEST(FallbackLadder, BitIdenticalToPlainCgWhenItConverges) {
  const linalg::CsrMatrix a = spd_tridiagonal(12);
  const std::vector<Real> b(12, 1.0);
  solver::FallbackOptions options;

  const linalg::IterativeResult plain = linalg::conjugate_gradient(a, b, options.cg);
  ASSERT_TRUE(plain.converged);

  solver::SolveDiagnostics diagnostics;
  solver::LadderWorkspace workspace;
  const std::vector<Real> x = solver::solve_with_fallback(a, b, options, diagnostics, workspace);
  EXPECT_EQ(diagnostics.highest_rung, solver::FallbackRung::kCg);
  EXPECT_EQ(diagnostics.linear_solves, 1);
  EXPECT_EQ(diagnostics.tikhonov_retries, 0);
  EXPECT_EQ(diagnostics.dense_fallbacks, 0);
  EXPECT_FALSE(diagnostics.degraded());
  ASSERT_EQ(x.size(), plain.x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_EQ(x[i], plain.x[i]) << "component " << i;  // bit-identical
  }
}

TEST(FallbackLadder, ForcedCgFailureEscalatesToDense) {
  const Index n = 12;
  const linalg::CsrMatrix a = spd_tridiagonal(n);
  std::vector<Real> b(static_cast<std::size_t>(n));
  for (Index i = 0; i < n; ++i) b[static_cast<std::size_t>(i)] = 1.0 + 0.25 * static_cast<Real>(i);

  fault::ScopedInjector chaos(19);
  chaos->arm(fault::Point::kCgNonConvergence, {.probability = 1.0});

  solver::SolveDiagnostics diagnostics;
  solver::LadderWorkspace workspace;
  const std::vector<Real> x =
      solver::solve_with_fallback(a, b, solver::FallbackOptions{}, diagnostics, workspace);

  // Both CG rungs were forced to fail, so the solve came from the dense rung.
  EXPECT_EQ(diagnostics.highest_rung, solver::FallbackRung::kDense);
  EXPECT_EQ(diagnostics.tikhonov_retries, 1);
  EXPECT_EQ(diagnostics.dense_fallbacks, 1);
  EXPECT_TRUE(diagnostics.degraded());

  // And it is still the right answer.
  linalg::DenseMatrix dense(n, n);
  dense(0, 0) = 4.0;
  for (Index i = 1; i < n; ++i) {
    dense(i, i) = 4.0;
    dense(i - 1, i) = -1.0;
    dense(i, i - 1) = -1.0;
  }
  const std::vector<Real> expected = linalg::solve_dense(dense, b);
  ASSERT_EQ(x.size(), expected.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], expected[i], 1e-12);
}

TEST(FallbackLadder, DiagnosticsMergeTakesWorstRungAndSums) {
  solver::SolveDiagnostics total;
  solver::SolveDiagnostics cg_only;
  cg_only.highest_rung = solver::FallbackRung::kCg;
  cg_only.linear_solves = 2;
  cg_only.cg_iterations = 40;
  solver::SolveDiagnostics dense;
  dense.highest_rung = solver::FallbackRung::kDense;
  dense.linear_solves = 1;
  dense.tikhonov_retries = 1;
  dense.dense_fallbacks = 1;
  dense.converged = false;
  total.merge(cg_only);
  total.merge(dense);
  EXPECT_EQ(total.highest_rung, solver::FallbackRung::kDense);
  EXPECT_EQ(total.linear_solves, 3);
  EXPECT_EQ(total.cg_iterations, 40);
  EXPECT_EQ(total.tikhonov_retries, 1);
  EXPECT_EQ(total.dense_fallbacks, 1);
  EXPECT_FALSE(total.converged);
}

TEST(FullSystemSolver, RecoversThroughDenseRungWhenCgIsForcedToFail) {
  const mea::Measurement measurement = make_measurement(4, 21);
  core::StrategyOptions strategy;  // keep_system = true by default
  const core::Session session = core::Session::on(measurement).options(strategy).build();
  const core::FormationResult formation = session.form();

  solver::FullSystemOptions options;
  options.max_iterations = 20;

  const solver::FullSystemResult healthy =
      solver::solve_full_system(formation.system, measurement, options);
  ASSERT_TRUE(healthy.converged);
  EXPECT_EQ(healthy.diagnostics.highest_rung, solver::FallbackRung::kCg);

  // The acceptance case from the issue: CG alone cannot make progress (every
  // CG call is forced to report non-convergence), but the ladder recovers.
  fault::ScopedInjector chaos(11);
  chaos->arm(fault::Point::kCgNonConvergence, {.probability = 1.0});
  const solver::FullSystemResult degraded =
      solver::solve_full_system(formation.system, measurement, options);
  EXPECT_TRUE(degraded.converged);
  EXPECT_EQ(degraded.diagnostics.highest_rung, solver::FallbackRung::kDense);
  EXPECT_GT(degraded.diagnostics.dense_fallbacks, 0);
  EXPECT_GT(chaos->fires(fault::Point::kCgNonConvergence), 0u);

  ASSERT_EQ(degraded.recovered.rows(), healthy.recovered.rows());
  ASSERT_EQ(degraded.recovered.cols(), healthy.recovered.cols());
  for (Index i = 0; i < healthy.recovered.rows(); ++i) {
    for (Index j = 0; j < healthy.recovered.cols(); ++j) {
      EXPECT_NEAR(degraded.recovered.at(i, j), healthy.recovered.at(i, j), 1e-6)
          << "cell (" << i << ", " << j << ")";
    }
  }
}

// The default recovery (Newton-CG on unmasked data) runs its Newton and
// damped steps through CG, so the fault point reaches it too. A CG that makes
// no progress leaves a zero step, and so does each of the eight damped
// retries after it: the solve ends typed instead of throwing.
TEST(InverseSolver, ForcedCgFailureEndsTypedWithoutThrowing) {
  const mea::Measurement measurement = make_measurement(6, 22);
  fault::ScopedInjector chaos(12);
  chaos->arm(fault::Point::kCgNonConvergence, {.probability = 1.0});

  solver::InverseResult result;
  ASSERT_NO_THROW(result = solver::recover_resistances(measurement));
  EXPECT_FALSE(result.converged);
  EXPECT_FALSE(result.diagnostics.converged);
  EXPECT_EQ(result.termination, solver::TerminationReason::kStalled);
  EXPECT_EQ(result.diagnostics.linear_solves, 9);
  EXPECT_EQ(result.diagnostics.cg_iterations, 0);
  EXPECT_GT(chaos->fires(fault::Point::kCgNonConvergence), 0u);
  ASSERT_EQ(result.misfit_history.size(), 2u);
  EXPECT_EQ(result.misfit_history[1], result.misfit_history[0]);
}

// ------------------------------------------------------------ serve: retry

TEST(ServeResilience, FullSystemRequestRecoversViaLadderWhenCgIsForced) {
  fault::ScopedInjector chaos(5);
  chaos->arm(fault::Point::kCgNonConvergence, {.probability = 1.0});

  ServerOptions options;
  options.workers = 1;
  Server server(options);

  ParametrizeRequest request = make_request(4);
  request.solve_method = SolveMethod::kFullSystem;
  request.full_system.max_iterations = 15;
  Ticket ticket = server.try_submit(std::move(request));
  ASSERT_TRUE(ticket.accepted());
  const ParametrizeResult r = ticket.future().get();
  ASSERT_EQ(r.status, RequestStatus::kOk) << r.message;
  EXPECT_EQ(r.attempts, 1);
  EXPECT_EQ(r.solve_diagnostics.highest_rung, solver::FallbackRung::kDense);
  EXPECT_GT(r.solve_diagnostics.dense_fallbacks, 0);
  server.drain();

  const Stats stats = server.stats();
  EXPECT_EQ(stats.completed_ok, 1u);
  EXPECT_GT(stats.fallback_dense, 0u);
  EXPECT_GT(stats.fallback_tikhonov, 0u);
}

TEST(ServeResilience, FullyRetriedFaultsAreBitIdenticalToFaultFreeRun) {
  ServerOptions options;
  options.workers = 1;
  options.policy.retry.max_attempts = 3;
  options.policy.retry.backoff = 0ms;

  // Fault-free reference run.
  ParametrizeResult reference;
  {
    Server server(options);
    Ticket ticket = server.try_submit(make_request(6, /*iterations=*/8));
    ASSERT_TRUE(ticket.accepted());
    reference = ticket.future().get();
    ASSERT_EQ(reference.status, RequestStatus::kOk) << reference.message;
    EXPECT_EQ(reference.attempts, 1);
  }

  // Storm run: attempt 1 sees an in-flight measurement corruption, attempt 2
  // an injected executor-chunk failure; both budgets are then exhausted, so
  // attempt 3 runs clean and must reproduce the reference bit for bit.
  fault::ScopedInjector chaos(31);
  chaos->arm(fault::Point::kDropMeasurement, {.probability = 1.0, .max_fires = 1});
  chaos->arm(fault::Point::kTaskFailure, {.probability = 1.0, .max_fires = 1});

  Server server(options);
  Ticket ticket = server.try_submit(make_request(6, /*iterations=*/8));
  ASSERT_TRUE(ticket.accepted());
  const ParametrizeResult retried = ticket.future().get();
  ASSERT_EQ(retried.status, RequestStatus::kOk) << retried.message;
  EXPECT_EQ(retried.attempts, 3);
  server.drain();

  EXPECT_EQ(retried.inverse.iterations, reference.inverse.iterations);
  EXPECT_EQ(retried.inverse.converged, reference.inverse.converged);
  EXPECT_EQ(retried.inverse.final_misfit, reference.inverse.final_misfit);
  ASSERT_EQ(retried.inverse.recovered.rows(), reference.inverse.recovered.rows());
  ASSERT_EQ(retried.inverse.recovered.cols(), reference.inverse.recovered.cols());
  for (Index i = 0; i < reference.inverse.recovered.rows(); ++i) {
    for (Index j = 0; j < reference.inverse.recovered.cols(); ++j) {
      EXPECT_EQ(retried.inverse.recovered.at(i, j), reference.inverse.recovered.at(i, j))
          << "cell (" << i << ", " << j << ")";
    }
  }

  const Stats stats = server.stats();
  EXPECT_EQ(stats.retries, 2u);
  EXPECT_EQ(stats.retry_successes, 1u);
  EXPECT_EQ(stats.completed_ok, 1u);
  EXPECT_EQ(stats.invalid_input, 0u);
  EXPECT_EQ(chaos->fires(fault::Point::kDropMeasurement), 1u);
  EXPECT_EQ(chaos->fires(fault::Point::kTaskFailure), 1u);
}

TEST(ServeResilience, PersistentCorruptionCompletesAsTypedInvalidInput) {
  fault::ScopedInjector chaos(13);
  chaos->arm(fault::Point::kDropMeasurement, {.probability = 1.0});  // every attempt

  ServerOptions options;
  options.workers = 1;
  options.policy.retry.max_attempts = 2;
  options.policy.retry.backoff = 0ms;
  Server server(options);

  Ticket ticket = server.try_submit(make_request(5));
  ASSERT_TRUE(ticket.accepted());
  const ParametrizeResult r = ticket.future().get();
  EXPECT_EQ(r.status, RequestStatus::kInvalidInput);
  EXPECT_NE(r.message.find("non-finite"), std::string::npos) << r.message;
  EXPECT_EQ(r.attempts, 2);
  server.drain();

  const Stats stats = server.stats();
  EXPECT_EQ(stats.invalid_input, 1u);
  EXPECT_EQ(stats.retries, 1u);
  EXPECT_EQ(stats.completed(), stats.accepted);
}

TEST(ServeResilience, AdmissionRejectsNonFiniteAndNegativeZ) {
  Server server;

  ParametrizeRequest nan_z = make_request(5);
  nan_z.measurement.z(1, 2) = std::numeric_limits<Real>::quiet_NaN();
  Ticket t1 = server.try_submit(std::move(nan_z));
  EXPECT_EQ(t1.admission(), SubmitStatus::kInvalidOptions);
  const ParametrizeResult r1 = t1.future().get();
  EXPECT_EQ(r1.status, RequestStatus::kInvalidInput);
  EXPECT_NE(r1.message.find("(1, 2)"), std::string::npos) << r1.message;

  ParametrizeRequest negative_z = make_request(5);
  negative_z.measurement.z(0, 0) = -3.5;
  Ticket t2 = server.try_submit(std::move(negative_z));
  EXPECT_EQ(t2.admission(), SubmitStatus::kInvalidOptions);
  EXPECT_EQ(t2.future().get().status, RequestStatus::kInvalidInput);

  EXPECT_EQ(server.stats().rejected_invalid, 2u);
}

TEST(EngineValidation, RejectsCorruptMeasurementTyped) {
  mea::Measurement bad = make_measurement(5);
  bad.z(2, 3) = std::numeric_limits<Real>::infinity();
  EXPECT_THROW(core::Engine{std::move(bad)}, mea::InvalidMeasurement);

  mea::Measurement negative = make_measurement(5);
  negative.z(0, 1) = 0.0;  // two-point resistance must be strictly positive
  EXPECT_THROW(core::Engine{std::move(negative)}, mea::InvalidMeasurement);
}

// ---------------------------------------------------------- circuit breaker

TEST(CircuitBreaker, LifecycleClosedOpenHalfOpenClosed) {
  const serve::BreakerOptions options{/*failure_threshold=*/2, /*cooldown=*/100ms};
  serve::BreakerBoard board(options);
  const serve::BreakerBoard::Shape shape{5, 5};
  const auto t0 = serve::Clock::now();

  EXPECT_TRUE(board.allow(shape, t0));  // unknown shape: implicitly closed
  board.on_failure(shape, t0);
  EXPECT_EQ(board.state(shape), serve::BreakerState::kClosed);  // 1 < threshold
  board.on_failure(shape, t0);
  EXPECT_EQ(board.state(shape), serve::BreakerState::kOpen);
  EXPECT_EQ(board.opened_events(), 1u);
  EXPECT_EQ(board.open_shapes(), 1u);

  EXPECT_FALSE(board.allow(shape, t0 + 50ms));   // still cooling down
  EXPECT_TRUE(board.allow(shape, t0 + 150ms));   // cooldown over: the probe
  EXPECT_EQ(board.state(shape), serve::BreakerState::kHalfOpen);
  EXPECT_FALSE(board.allow(shape, t0 + 150ms));  // one probe at a time

  board.on_neutral(shape);                       // probe ended without signal
  EXPECT_TRUE(board.allow(shape, t0 + 160ms));   // next probe may go

  board.on_failure(shape, t0 + 170ms);           // probe failed: reopen
  EXPECT_EQ(board.state(shape), serve::BreakerState::kOpen);
  EXPECT_EQ(board.opened_events(), 2u);

  EXPECT_TRUE(board.allow(shape, t0 + 300ms));   // second probe
  board.on_success(shape);
  EXPECT_EQ(board.state(shape), serve::BreakerState::kClosed);
  EXPECT_EQ(board.open_shapes(), 0u);

  // Consecutive-failure counter reset on success: one more failure stays closed.
  board.on_failure(shape, t0 + 310ms);
  EXPECT_EQ(board.state(shape), serve::BreakerState::kClosed);

  // Other shapes are independent.
  EXPECT_TRUE(board.allow({6, 6}, t0));
  EXPECT_EQ(board.state(serve::BreakerBoard::Shape{6, 6}), serve::BreakerState::kClosed);
}

TEST(CircuitBreaker, ZeroThresholdDisables) {
  serve::BreakerBoard board(serve::BreakerOptions{0, 100ms});
  const serve::BreakerBoard::Shape shape{5, 5};
  const auto t0 = serve::Clock::now();
  for (int i = 0; i < 10; ++i) board.on_failure(shape, t0);
  EXPECT_TRUE(board.allow(shape, t0));
  EXPECT_EQ(board.opened_events(), 0u);
}

TEST(ServeResilience, BreakerFastFailsShapeAfterRepeatedSolverFailures) {
  ServerOptions options;
  options.workers = 1;
  options.policy.retry.max_attempts = 1;
  options.policy.breaker.failure_threshold = 2;
  options.policy.breaker.cooldown = 10s;  // stays open for the rest of the test
  Server server(options);

  for (int k = 0; k < 2; ++k) {
    ParametrizeRequest bad = make_request(5);
    bad.inverse.max_iterations = 0;  // solver contract violation: kSolverFailed
    Ticket t = server.try_submit(std::move(bad));
    ASSERT_TRUE(t.accepted());
    EXPECT_EQ(t.future().get().status, RequestStatus::kSolverFailed);
  }
  EXPECT_EQ(server.breaker_state(5, 5), serve::BreakerState::kOpen);

  // Healthy request for the poisoned shape: fast-failed without solving.
  Ticket blocked = server.try_submit(make_request(5));
  ASSERT_TRUE(blocked.accepted());
  const ParametrizeResult r = blocked.future().get();
  EXPECT_EQ(r.status, RequestStatus::kBreakerOpen);
  EXPECT_NE(r.message.find("breaker"), std::string::npos);

  // Other shapes are unaffected.
  Ticket other = server.try_submit(make_request(6));
  ASSERT_TRUE(other.accepted());
  EXPECT_EQ(other.future().get().status, RequestStatus::kOk);
  server.drain();

  const Stats stats = server.stats();
  EXPECT_EQ(stats.solver_failed, 2u);
  EXPECT_EQ(stats.breaker_open, 1u);
  EXPECT_EQ(stats.breaker_opened_events, 1u);
  EXPECT_EQ(stats.breaker_open_shapes, 1u);
  EXPECT_EQ(stats.completed(), stats.accepted);
}

// ------------------------------------------------------------ degraded mode

TEST(ServeResilience, DegradedModeShedsLowPriorityAndRecovers) {
  ServerOptions options;
  options.queue_capacity = 4;
  options.workers = 1;
  options.deferred_start = true;     // stage the queue deterministically
  options.policy.shedding.high_water = 0.5; // threshold: 2 queued
  options.policy.shedding.sustain = 0ms;
  Server server(options);

  Ticket t1 = server.try_submit(make_request(5));
  Ticket t2 = server.try_submit(make_request(5));
  ASSERT_TRUE(t1.accepted());
  ASSERT_TRUE(t2.accepted());

  // Queue sits at the high-water mark: this admission trips degraded mode
  // and, being low priority, is shed.
  ParametrizeRequest low = make_request(5);
  low.priority = Priority::kLow;
  Ticket shed = server.try_submit(std::move(low));
  EXPECT_EQ(shed.admission(), SubmitStatus::kLoadShed);
  EXPECT_EQ(shed.future().get().status, RequestStatus::kRejected);
  EXPECT_TRUE(server.degraded());

  // Normal-priority traffic still gets in under degraded mode.
  Ticket normal = server.try_submit(make_request(5));
  EXPECT_EQ(normal.admission(), SubmitStatus::kAccepted);

  server.start();
  EXPECT_EQ(t1.future().get().status, RequestStatus::kOk);
  EXPECT_EQ(t2.future().get().status, RequestStatus::kOk);
  EXPECT_EQ(normal.future().get().status, RequestStatus::kOk);

  // Queue has fully drained (below half the threshold): the next admission
  // exits degraded mode, so low-priority work flows again.
  ParametrizeRequest low_again = make_request(5);
  low_again.priority = Priority::kLow;
  Ticket recovered = server.try_submit(std::move(low_again));
  EXPECT_EQ(recovered.admission(), SubmitStatus::kAccepted);
  EXPECT_FALSE(server.degraded());
  EXPECT_EQ(recovered.future().get().status, RequestStatus::kOk);

  const Stats stats = server.stats();
  EXPECT_EQ(stats.rejected_load_shed, 1u);
  EXPECT_EQ(stats.degraded_entered, 1u);
  EXPECT_FALSE(stats.degraded);
}

// ------------------------------------------------------------- chaos storms

std::uint64_t chaos_seed() {
  if (const char* env = std::getenv("PARMA_CHAOS_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 1;
}

TEST(Chaos, AllPointsArmedStormCompletesEveryRequestDefinitely) {
  const std::uint64_t seed = chaos_seed();
  SCOPED_TRACE("PARMA_CHAOS_SEED=" + std::to_string(seed));

  fault::ScopedInjector chaos(seed);
  fault::Schedule storm;
  storm.probability = 0.15;
  chaos->arm_all(storm);  // every named point armed at once
  chaos->stall = 1ms;

  ServerOptions options;
  options.workers = 3;
  options.queue_capacity = 16;
  options.max_batch = 4;
  options.policy.retry.max_attempts = 3;
  options.policy.retry.backoff = 0ms;  // keep the storm fast
  options.policy.breaker.failure_threshold = 3;
  options.policy.breaker.cooldown = 5ms;
  options.policy.shedding.high_water = 0.9;
  options.policy.shedding.sustain = 1ms;
  Server server(options);

  constexpr int kRequests = 36;
  std::vector<Ticket> tickets;
  tickets.reserve(kRequests);
  for (int i = 0; i < kRequests; ++i) {
    ParametrizeRequest request = make_request(4 + static_cast<Index>(i % 3), 3);
    request.priority = (i % 5 == 0) ? Priority::kLow : Priority::kNormal;
    if (i % 6 == 0) {
      request.solve_method = SolveMethod::kFullSystem;
      request.full_system.max_iterations = 4;
    }
    tickets.push_back(server.submit(std::move(request), 500ms));
    if (!tickets.back().accepted()) {
      // Rejected admissions (backpressure/shedding) still complete instantly.
      EXPECT_EQ(tickets.back().future().wait_for(0ms), std::future_status::ready);
    }
  }
  server.drain();  // returning at all proves no request hung

  for (Ticket& ticket : tickets) {
    ASSERT_EQ(ticket.future().wait_for(0ms), std::future_status::ready);
    const ParametrizeResult r = ticket.future().get();
    switch (r.status) {  // every status definite and known
      case RequestStatus::kOk:
      case RequestStatus::kDeadlineExceeded:
      case RequestStatus::kCancelled:
      case RequestStatus::kRejected:
      case RequestStatus::kSolverFailed:
      case RequestStatus::kInvalidInput:
      case RequestStatus::kBreakerOpen:
        break;
      default:
        ADD_FAILURE() << "unknown status " << static_cast<int>(r.status);
    }
    if (r.status == RequestStatus::kOk) {
      EXPECT_GE(r.attempts, 1);
      EXPECT_LE(r.attempts, options.policy.retry.max_attempts);
    }
  }

  // Stat conservation: nothing lost, nothing double-counted.
  const Stats stats = server.stats();
  EXPECT_EQ(stats.submitted, static_cast<std::uint64_t>(kRequests));
  EXPECT_EQ(stats.accepted + stats.rejected(), stats.submitted);
  EXPECT_EQ(stats.completed(), stats.accepted);
  EXPECT_EQ(stats.end_to_end.count, stats.accepted);
  EXPECT_GT(chaos->total_fires(), 0u) << "storm never fired; schedule misconfigured?";
}

TEST(Chaos, StormWithRetriesDisabledStillCompletesDefinitely) {
  const std::uint64_t seed = chaos_seed() + 1000;
  fault::ScopedInjector chaos(seed);
  chaos->arm_all({.probability = 0.25});
  chaos->stall = 1ms;

  ServerOptions options;
  options.workers = 2;
  options.policy.retry.max_attempts = 1;  // every fault is terminal: statuses must still be definite
  options.policy.breaker.failure_threshold = 2;
  options.policy.breaker.cooldown = 1ms;
  Server server(options);

  std::vector<Ticket> tickets;
  for (int i = 0; i < 24; ++i) {
    tickets.push_back(server.submit(make_request(5, 2), 500ms));
  }
  server.drain();

  for (Ticket& ticket : tickets) {
    ASSERT_EQ(ticket.future().wait_for(0ms), std::future_status::ready);
    (void)ticket.future().get();
  }
  const Stats stats = server.stats();
  EXPECT_EQ(stats.accepted + stats.rejected(), stats.submitted);
  EXPECT_EQ(stats.completed(), stats.accepted);
}

}  // namespace
}  // namespace parma
