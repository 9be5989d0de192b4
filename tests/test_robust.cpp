// Tests for the robustness layer: measurement masks, IRLS robust losses,
// termination taxonomy, conditioning guardrails, and quality-aware serving.
//
// The two load-bearing contracts:
//   1. bit-identity -- an all-true mask and RobustLoss::kNone change NOTHING:
//      formation, the recovery, and the serve pipeline produce bitwise the
//      same results as the pre-robust code paths;
//   2. graceful degradation -- corrupt or missing entries cost accuracy
//      smoothly (bounded, roughly monotone in the corruption fraction), and
//      the robust+masked configuration beats plain least squares on the same
//      dirty sweep.
// Carries the `tsan` ctest label; RobustChaos.* additionally runs under the
// `chaos` label with three distinct PARMA_CHAOS_SEED values.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <vector>

#include "common/require.hpp"
#include "common/rng.hpp"
#include "equations/generator.hpp"
#include "fault/injector.hpp"
#include "mea/generator.hpp"
#include "mea/measurement.hpp"
#include "serve/server.hpp"
#include "solver/inverse_solver.hpp"
#include "solver/robust.hpp"

namespace parma {
namespace {

using namespace std::chrono_literals;

struct Scenario {
  mea::DeviceSpec spec;
  circuit::ResistanceGrid truth{1, 1};
  mea::Measurement measurement;
};

Scenario make_scenario(Index n, std::uint64_t seed, Real noise = 0.0) {
  Rng rng(seed);
  Scenario s{mea::square_device(n), circuit::ResistanceGrid(1, 1), {}};
  s.truth = mea::generate_field(s.spec, mea::random_scenario(s.spec, 1, rng), rng);
  mea::MeasurementOptions mopt;
  mopt.noise_fraction = noise;
  s.measurement = mea::measure(s.spec, s.truth, mopt, rng);
  return s;
}

// Multiplies `count` deterministic entries of Z by a gross factor -- the
// adversarial single-point corruption a robust loss must absorb.
std::vector<Index> corrupt_entries(mea::Measurement& m, Index count, std::uint64_t seed,
                                   Real factor = 10.0) {
  Rng rng(seed);
  const Index rows = m.z.rows();
  const Index cols = m.z.cols();
  std::vector<Index> corrupted;
  while (static_cast<Index>(corrupted.size()) < count) {
    const Index p = static_cast<Index>(rng.uniform(0.0, 1.0) *
                                       static_cast<Real>(rows * cols));
    const Index clamped = std::min(p, rows * cols - 1);
    if (std::find(corrupted.begin(), corrupted.end(), clamped) != corrupted.end()) continue;
    corrupted.push_back(clamped);
    m.z(clamped / cols, clamped % cols) *= factor;
  }
  std::sort(corrupted.begin(), corrupted.end());
  return corrupted;
}

Real median_abs_rel_error(const circuit::ResistanceGrid& recovered,
                          const circuit::ResistanceGrid& truth) {
  std::vector<Real> errs;
  errs.reserve(truth.flat().size());
  for (std::size_t e = 0; e < truth.flat().size(); ++e) {
    errs.push_back(std::abs(recovered.flat()[e] - truth.flat()[e]) /
                   std::abs(truth.flat()[e]));
  }
  std::nth_element(errs.begin(), errs.begin() + static_cast<std::ptrdiff_t>(errs.size() / 2),
                   errs.end());
  return errs[errs.size() / 2];
}

// ---------------------------------------------------------------- mea layer

TEST(Mask, MaskInvalidEntriesMasksNonFiniteAndNonPositive) {
  Scenario s = make_scenario(3, 900);
  s.measurement.z(0, 0) = std::numeric_limits<Real>::quiet_NaN();
  s.measurement.z(1, 1) = -5.0;
  s.measurement.z(2, 2) = 0.0;
  EXPECT_EQ(mea::mask_invalid_entries(s.measurement), 3);
  EXPECT_EQ(mea::masked_entry_count(s.measurement), 3);
  EXPECT_FALSE(mea::entry_valid(s.measurement, 0, 0));
  EXPECT_FALSE(mea::entry_valid(s.measurement, 1, 1));
  EXPECT_FALSE(mea::entry_valid(s.measurement, 2, 2));
  // Idempotent: the already-masked entries are not re-counted.
  EXPECT_EQ(mea::mask_invalid_entries(s.measurement), 0);
  // The masked payload now validates (the garbage is never read).
  EXPECT_NO_THROW(mea::validate_measurement(s.measurement));
}

TEST(Mask, ValidateMeasurementTypedDiagnostics) {
  Scenario s = make_scenario(3, 901);
  mea::Measurement good = s.measurement;
  EXPECT_NO_THROW(mea::validate_measurement(good));

  mea::Measurement nan_z = s.measurement;
  nan_z.z(1, 0) = std::numeric_limits<Real>::quiet_NaN();
  EXPECT_THROW(mea::validate_measurement(nan_z), mea::InvalidMeasurement);

  mea::Measurement bad_volts = s.measurement;
  bad_volts.spec.drive_voltage = -1.0;
  EXPECT_THROW(mea::validate_measurement(bad_volts), mea::InvalidMeasurement);
  bad_volts.spec.drive_voltage = std::numeric_limits<Real>::infinity();
  EXPECT_THROW(mea::validate_measurement(bad_volts), mea::InvalidMeasurement);

  mea::Measurement bad_mask = s.measurement;
  bad_mask.mask = mea::MeasurementMask(2, 2);  // shape mismatch
  EXPECT_THROW(mea::validate_measurement(bad_mask), mea::InvalidMeasurement);

  mea::Measurement all_masked = s.measurement;
  all_masked.mask = mea::MeasurementMask(3, 3);
  for (Index i = 0; i < 3; ++i) {
    for (Index j = 0; j < 3; ++j) all_masked.mask->drop(i, j);
  }
  EXPECT_THROW(mea::validate_measurement(all_masked), mea::InvalidMeasurement);
}

// ----------------------------------------------------------- formation layer

TEST(MaskedFormation, DropsExactlyTheTerminalEquationsOfMaskedPairs) {
  Scenario s = make_scenario(4, 910);
  const equations::EquationSystem full = equations::generate_system(s.measurement);

  mea::Measurement masked = s.measurement;
  masked.mask = mea::MeasurementMask(4, 4);
  masked.mask->drop(0, 1);
  masked.mask->drop(3, 2);
  const equations::EquationSystem partial = equations::generate_system(masked);
  EXPECT_EQ(static_cast<Index>(partial.equations.size()),
            static_cast<Index>(full.equations.size()) - 4);
  EXPECT_EQ(static_cast<Index>(partial.equations.size()),
            equations::expected_equation_count(masked));
}

TEST(MaskedFormation, AllTrueMaskIsBitIdenticalToUnmasked) {
  Scenario s = make_scenario(4, 911);
  const equations::EquationSystem plain = equations::generate_system(s.measurement);

  mea::Measurement masked = s.measurement;
  masked.mask = mea::MeasurementMask(4, 4);  // every bit set
  const equations::EquationSystem via_mask = equations::generate_system(masked);

  ASSERT_EQ(via_mask.equations.size(), plain.equations.size());
  for (std::size_t e = 0; e < plain.equations.size(); ++e) {
    EXPECT_EQ(via_mask.equations[e].rhs, plain.equations[e].rhs);
    ASSERT_EQ(via_mask.equations[e].terms.size(), plain.equations[e].terms.size());
  }
}

// ------------------------------------------------------------- robust module

TEST(RobustModule, ScaleWeightsAndCost) {
  std::vector<Real> residual{0.0, 0.1, -0.1, 0.05, 100.0};
  std::vector<Real> scratch;
  const Real sigma = solver::robust_scale(residual, scratch, 1e-12);
  EXPECT_GT(sigma, 0.0);
  EXPECT_LT(sigma, 1.0);  // the gross outlier must not inflate the MAD

  std::vector<Real> weights;
  const Index down = solver::robust_weights(residual, sigma, solver::RobustLoss::kHuber,
                                            1.345, weights);
  ASSERT_EQ(weights.size(), residual.size());
  EXPECT_GE(down, 1);
  EXPECT_LT(weights[4], 0.05);          // outlier heavily down-weighted
  EXPECT_DOUBLE_EQ(weights[0], 1.0);    // small residuals untouched

  std::vector<Real> tukey_weights;
  solver::robust_weights(residual, sigma, solver::RobustLoss::kTukey, 4.685, tukey_weights);
  EXPECT_EQ(tukey_weights[4], 0.0);     // redescending: gross outlier killed

  const Real cost = solver::robust_cost(residual, sigma, solver::RobustLoss::kHuber, 1.345);
  EXPECT_TRUE(std::isfinite(cost));
  EXPECT_GT(cost, 0.0);
}

TEST(RobustModule, DiagonalConditionEstimate) {
  EXPECT_DOUBLE_EQ(solver::diagonal_condition_estimate({2.0, 2.0, 2.0}), 1.0);
  EXPECT_DOUBLE_EQ(solver::diagonal_condition_estimate({1.0, 100.0}), 100.0);
  EXPECT_TRUE(std::isinf(solver::diagonal_condition_estimate({1.0, 0.0})));
  EXPECT_TRUE(std::isinf(solver::diagonal_condition_estimate(
      {1.0, std::numeric_limits<Real>::quiet_NaN()})));
}

TEST(RobustModule, NamesAreStable) {
  EXPECT_STREQ(solver::robust_loss_name(solver::RobustLoss::kNone), "none");
  EXPECT_STREQ(solver::robust_loss_name(solver::RobustLoss::kHuber), "huber");
  EXPECT_STREQ(solver::robust_loss_name(solver::RobustLoss::kTukey), "tukey");
  EXPECT_STREQ(solver::termination_reason_name(solver::TerminationReason::kToleranceReached),
               "tolerance-reached");
  EXPECT_STREQ(solver::termination_reason_name(solver::TerminationReason::kMaxIterations),
               "max-iterations");
  EXPECT_STREQ(solver::termination_reason_name(solver::TerminationReason::kStalled),
               "stalled");
  EXPECT_STREQ(
      solver::termination_reason_name(solver::TerminationReason::kNumericalBreakdown),
      "numerical-breakdown");
}

// --------------------------------------------------------------- LM solver

TEST(RobustLm, RobustOffIsBitIdenticalWithAllTrueMask) {
  const Scenario s = make_scenario(4, 920);
  solver::InverseOptions options;
  options.max_iterations = 40;
  const solver::InverseResult plain = solver::recover_resistances(s.measurement, options);

  mea::Measurement masked = s.measurement;
  masked.mask = mea::MeasurementMask(4, 4);
  const solver::InverseResult via_mask = solver::recover_resistances(masked, options);

  ASSERT_EQ(via_mask.recovered.flat().size(), plain.recovered.flat().size());
  for (std::size_t e = 0; e < plain.recovered.flat().size(); ++e) {
    EXPECT_EQ(via_mask.recovered.flat()[e], plain.recovered.flat()[e]) << "entry " << e;
  }
  EXPECT_EQ(via_mask.iterations, plain.iterations);
  EXPECT_EQ(via_mask.final_misfit, plain.final_misfit);
}

TEST(RobustLm, TerminationReasonIsTyped) {
  const Scenario s = make_scenario(3, 921);
  solver::InverseOptions options;
  options.max_iterations = 60;
  options.tolerance = 1e-10;
  const solver::InverseResult converged = solver::recover_resistances(s.measurement, options);
  EXPECT_TRUE(converged.converged);
  EXPECT_EQ(converged.termination, solver::TerminationReason::kToleranceReached);

  solver::InverseOptions one_iter = options;
  one_iter.max_iterations = 1;
  one_iter.tolerance = 0.0;  // unreachable
  const solver::InverseResult capped = solver::recover_resistances(s.measurement, one_iter);
  EXPECT_FALSE(capped.converged);
  EXPECT_EQ(capped.termination, solver::TerminationReason::kMaxIterations);
}

TEST(RobustLm, MaskedRecoveryStaysAccurate) {
  const Scenario s = make_scenario(5, 922);
  mea::Measurement masked = s.measurement;
  masked.mask = mea::MeasurementMask(5, 5);
  masked.mask->drop(0, 3);
  masked.mask->drop(2, 2);
  masked.mask->drop(4, 1);
  // The masked entries' payload must never be read: poison them.
  masked.z(0, 3) = std::numeric_limits<Real>::quiet_NaN();
  masked.z(2, 2) = -1.0;

  solver::InverseOptions options;
  options.max_iterations = 80;
  const solver::InverseResult result = solver::recover_resistances(masked, options);
  EXPECT_EQ(result.robust.masked_entries, 3);
  EXPECT_LT(median_abs_rel_error(result.recovered, s.truth), 0.05);
}

TEST(RobustLm, HuberBeatsPlainLeastSquaresUnderCorruption) {
  const Scenario s = make_scenario(5, 923, /*noise=*/0.005);
  mea::Measurement dirty = s.measurement;
  const std::vector<Index> corrupted = corrupt_entries(dirty, 2, 42);

  solver::InverseOptions plain;
  plain.max_iterations = 60;
  const solver::InverseResult ls = solver::recover_resistances(dirty, plain);

  solver::InverseOptions robust = plain;
  robust.robust.loss = solver::RobustLoss::kHuber;
  const solver::InverseResult huber = solver::recover_resistances(dirty, robust);

  const Real ls_err = median_abs_rel_error(ls.recovered, s.truth);
  const Real huber_err = median_abs_rel_error(huber.recovered, s.truth);
  EXPECT_LT(huber_err, ls_err) << "robust " << huber_err << " vs plain " << ls_err;
  EXPECT_TRUE(huber.robust.enabled);
  EXPECT_GT(huber.robust.final_scale, 0.0);
  // The corrupted entries must be among the flagged outliers.
  for (Index p : corrupted) {
    EXPECT_NE(std::find(huber.robust.downweighted_entries.begin(),
                        huber.robust.downweighted_entries.end(), p),
              huber.robust.downweighted_entries.end())
        << "corrupted entry " << p << " was not flagged";
  }
}

// ----------------------------------------------------- corruption sweep (LM)

// Error is bounded and roughly monotone as corruption rises 0 -> 30%: each
// level's median error may beat lower levels by luck, but must never blow
// past the bound, and the fault-free level must be the best (within slack).
TEST(RobustSweep, ErrorBoundedAndRoughlyMonotoneInCorruption) {
  const Scenario s = make_scenario(5, 940, /*noise=*/0.005);
  const Index total = 25;
  const std::vector<Real> fractions{0.0, 0.1, 0.2, 0.3};
  std::vector<Real> errors;
  for (const Real fraction : fractions) {
    mea::Measurement dirty = s.measurement;
    // fault::Injector as the deterministic corruption source: one query per
    // entry; armed probability = the corruption fraction.
    fault::Injector injector(4242);
    fault::Schedule schedule;
    schedule.probability = fraction;
    injector.arm(fault::Point::kNoiseMeasurement, schedule);
    Index corrupted = 0;
    for (Index i = 0; i < dirty.z.rows(); ++i) {
      for (Index j = 0; j < dirty.z.cols(); ++j) {
        if (injector.should_fire(fault::Point::kNoiseMeasurement)) {
          dirty.z(i, j) *= 25.0;
          ++corrupted;
        }
      }
    }
    if (fraction > 0.0 && corrupted == 0) continue;  // schedule fired nothing
    EXPECT_LE(corrupted, static_cast<Index>(0.5 * static_cast<Real>(total)));

    solver::InverseOptions options;
    options.max_iterations = 60;
    options.robust.loss = solver::RobustLoss::kTukey;
    const solver::InverseResult result = solver::recover_resistances(dirty, options);
    errors.push_back(median_abs_rel_error(result.recovered, s.truth));
  }
  ASSERT_GE(errors.size(), 3u);
  for (std::size_t k = 0; k < errors.size(); ++k) {
    EXPECT_LT(errors[k], 0.5) << "corruption level " << k << " error unbounded";
  }
  // Rough monotonicity: the clean run is within 2x of every corrupted run.
  for (std::size_t k = 1; k < errors.size(); ++k) {
    EXPECT_LT(errors[0], 2.0 * errors[k] + 0.01)
        << "clean error " << errors[0] << " worse than corrupted " << errors[k];
  }
}

// -------------------------------------------------------------- serve layer

mea::Measurement serve_measurement(Index n, std::uint64_t seed = 7) {
  Rng rng(seed + static_cast<std::uint64_t>(n));
  const mea::DeviceSpec spec = mea::square_device(n);
  const auto truth = mea::generate_field(spec, mea::random_scenario(spec, 1, rng), rng);
  return mea::measure_exact(spec, truth);
}

serve::ParametrizeRequest make_request(Index n, Index iterations = 25) {
  serve::ParametrizeRequest request;
  request.measurement = serve_measurement(n);
  request.options.strategy = core::Strategy::kFineGrained;
  request.options.workers = 2;
  request.options.chunk = 2;
  request.inverse.max_iterations = iterations;
  return request;
}

TEST(RobustServe, StatusNameAndHasResult) {
  EXPECT_STREQ(serve::request_status_name(serve::RequestStatus::kDegradedResult),
               "degraded-result");
  serve::ParametrizeResult r;
  r.status = serve::RequestStatus::kDegradedResult;
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.has_result());
  r.status = serve::RequestStatus::kOk;
  EXPECT_TRUE(r.has_result());
}

TEST(RobustServe, AutoMaskAdmitsAndServesCorruptPayload) {
  serve::ServerOptions sopts;
  sopts.workers = 1;
  serve::Server server(sopts);

  serve::ParametrizeRequest request = make_request(4);
  request.measurement.z(1, 2) = std::numeric_limits<Real>::quiet_NaN();
  request.measurement.z(3, 3) = -2.0;
  request.auto_mask_invalid = true;
  request.inverse.robust.loss = solver::RobustLoss::kHuber;

  serve::Ticket ticket = server.submit(std::move(request), 5s);
  ASSERT_TRUE(ticket.accepted());
  const serve::ParametrizeResult result = ticket.future().get();
  EXPECT_EQ(result.status, serve::RequestStatus::kOk) << result.message;
  EXPECT_EQ(result.quality.masked_entries, 2);
  EXPECT_GT(result.quality.masked_fraction, 0.0);
  server.shutdown();
  const serve::Stats stats = server.stats();
  EXPECT_EQ(stats.masked_entries, 2u);
  EXPECT_GE(stats.auto_masked_entries, 2u);
}

TEST(RobustServe, WithoutAutoMaskCorruptPayloadIsStillRejected) {
  serve::ServerOptions sopts;
  sopts.workers = 1;
  serve::Server server(sopts);
  serve::ParametrizeRequest request = make_request(3);
  request.measurement.z(0, 0) = std::numeric_limits<Real>::quiet_NaN();
  serve::Ticket ticket = server.submit(std::move(request), 5s);
  const serve::ParametrizeResult result = ticket.future().get();
  EXPECT_EQ(result.status, serve::RequestStatus::kInvalidInput);
  server.shutdown();
}

TEST(RobustServe, QualityFloorDemotesHeavilyMaskedResult) {
  serve::ServerOptions sopts;
  sopts.workers = 1;
  serve::Server server(sopts);

  serve::ParametrizeRequest request = make_request(4);
  // Corrupt 4/16 entries = 25% masked; floor allows 10%.
  request.measurement.z(0, 0) = -1.0;
  request.measurement.z(1, 1) = -1.0;
  request.measurement.z(2, 2) = std::numeric_limits<Real>::quiet_NaN();
  request.measurement.z(3, 3) = 0.0;
  request.auto_mask_invalid = true;
  request.quality_floor.max_masked_fraction = 0.1;

  serve::Ticket ticket = server.submit(std::move(request), 5s);
  ASSERT_TRUE(ticket.accepted());
  const serve::ParametrizeResult result = ticket.future().get();
  EXPECT_EQ(result.status, serve::RequestStatus::kDegradedResult) << result.message;
  EXPECT_TRUE(result.has_result());
  EXPECT_TRUE(result.quality.degraded);
  EXPECT_GT(result.quality.masked_fraction, 0.2);
  EXPECT_FALSE(result.message.empty());
  // The recovery is still delivered.
  EXPECT_EQ(result.inverse.recovered.rows(), 4);
  server.shutdown();
  const serve::Stats stats = server.stats();
  EXPECT_EQ(stats.degraded_results, 1u);
  EXPECT_EQ(stats.completed(), stats.accepted);
  // The demoted solve is still counted in the solver counters.
  EXPECT_EQ(stats.completed_ok, 0u);
  EXPECT_EQ(stats.solver_iterations, static_cast<std::uint64_t>(result.inverse.iterations));
}

TEST(RobustServe, QualityFloorDisabledKeepsOkBehavior) {
  serve::ServerOptions sopts;
  sopts.workers = 1;
  serve::Server server(sopts);
  serve::Ticket ticket = server.submit(make_request(4), 5s);
  const serve::ParametrizeResult result = ticket.future().get();
  EXPECT_EQ(result.status, serve::RequestStatus::kOk);
  EXPECT_FALSE(result.quality.degraded);
  EXPECT_EQ(result.quality.masked_entries, 0);
  server.shutdown();
  EXPECT_EQ(server.stats().degraded_results, 0u);
}

// ------------------------------------------------------------- chaos storms

std::uint64_t chaos_seed() {
  if (const char* env = std::getenv("PARMA_CHAOS_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 1;
}

// Injected measurement faults (NaN drop + sign-flip noise) on every attempt,
// served with auto-masking and a Huber loss: every request must complete
// with a usable result -- the faults are masked away, not retried away.
TEST(RobustChaos, AutoMaskAbsorbsInjectedMeasurementFaults) {
  const std::uint64_t seed = chaos_seed();
  SCOPED_TRACE("PARMA_CHAOS_SEED=" + std::to_string(seed));

  fault::ScopedInjector chaos(seed);
  fault::Schedule always;
  always.probability = 1.0;
  chaos->arm(fault::Point::kDropMeasurement, always);
  chaos->arm(fault::Point::kNoiseMeasurement, always);

  serve::ServerOptions sopts;
  sopts.workers = 2;
  sopts.policy.retry.max_attempts = 1;  // no retries: masking alone must absorb the faults
  serve::Server server(sopts);

  std::vector<serve::Ticket> tickets;
  for (int r = 0; r < 6; ++r) {
    serve::ParametrizeRequest request = make_request(4);
    request.auto_mask_invalid = true;
    request.inverse.robust.loss = solver::RobustLoss::kHuber;
    tickets.push_back(server.submit(std::move(request), 10s));
  }
  Index usable = 0;
  for (serve::Ticket& t : tickets) {
    ASSERT_TRUE(t.accepted());
    const serve::ParametrizeResult result = t.future().get();
    if (result.has_result()) ++usable;
  }
  EXPECT_EQ(usable, 6);
  server.shutdown();
  const serve::Stats stats = server.stats();
  EXPECT_EQ(stats.completed(), stats.accepted);
  EXPECT_EQ(stats.retries, 0u);
  // kNoiseMeasurement negates an entry -> auto-masked, so at least the
  // noise-fault entries show up in the masking census.
  EXPECT_GT(stats.auto_masked_entries, 0u);
}

// The ISSUE's headline robustness criterion: at ~10% corrupted entries
// (dropped -> NaN, noised -> sign flip; both seeded via fault::Injector and
// both detectable), the robust+masked pipeline's median reconstruction error
// stays within 2x of the fault-free pipeline, while plain least squares on
// the same corrupted input is measurably worse (here: a typed refusal on the
// non-finite payload). Asserted at n=8 -- the small end of the ISSUE's
// n=8..16 range, where the masked null space is proportionally largest.
TEST(RobustChaos, TenPercentCorruptionWithinTwiceFaultFreeError) {
  const std::uint64_t seed = chaos_seed();
  SCOPED_TRACE("PARMA_CHAOS_SEED=" + std::to_string(seed));

  const Scenario s = make_scenario(8, 950 + seed, /*noise=*/0.005);
  solver::InverseOptions options;
  options.max_iterations = 60;
  const solver::InverseResult clean = solver::recover_resistances(s.measurement, options);
  const Real clean_err = median_abs_rel_error(clean.recovered, s.truth);

  mea::Measurement dirty = s.measurement;
  fault::Injector injector(seed * 7919 + 17);
  fault::Schedule schedule;
  schedule.probability = 0.05;  // two independent 5% points ~= 10% corrupted
  injector.arm(fault::Point::kDropMeasurement, schedule);
  injector.arm(fault::Point::kNoiseMeasurement, schedule);
  Index corrupted = 0;
  for (Index i = 0; i < dirty.z.rows(); ++i) {
    for (Index j = 0; j < dirty.z.cols(); ++j) {
      if (injector.should_fire(fault::Point::kDropMeasurement)) {
        dirty.z(i, j) = std::numeric_limits<Real>::quiet_NaN();
        ++corrupted;
      } else if (injector.should_fire(fault::Point::kNoiseMeasurement)) {
        dirty.z(i, j) = -dirty.z(i, j);
        ++corrupted;
      }
    }
  }
  if (corrupted == 0) GTEST_SKIP() << "schedule fired no corruption at this seed";

  // Plain least squares on the raw corrupted payload: measurably worse --
  // the NaN / negated entries trip a typed diagnostic (non-finite misfit or
  // the positive-initial-guess contract) instead of producing a result.
  bool typed_refusal = false;
  try {
    (void)solver::recover_resistances(dirty, options);
  } catch (const NumericalError&) {
    typed_refusal = true;
  } catch (const ContractError&) {
    typed_refusal = true;
  }
  EXPECT_TRUE(typed_refusal) << "plain least squares accepted the corrupted payload";

  // Robust+masked pipeline: auto-mask the detectable corruption, solve with
  // the Huber loss guarding the residuals that remain.
  mea::Measurement masked = dirty;
  const Index auto_masked = mea::mask_invalid_entries(masked);
  EXPECT_EQ(auto_masked, corrupted);
  solver::InverseOptions robust = options;
  robust.robust.loss = solver::RobustLoss::kHuber;
  const solver::InverseResult result = solver::recover_resistances(masked, robust);
  EXPECT_EQ(result.robust.masked_entries, corrupted);
  const Real robust_err = median_abs_rel_error(result.recovered, s.truth);
  EXPECT_LT(robust_err, 2.0 * clean_err + 1e-3)
      << "robust+masked " << robust_err << " vs fault-free " << clean_err << " (corrupted "
      << corrupted << " entries)";
}

}  // namespace
}  // namespace parma
