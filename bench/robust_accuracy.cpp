// Dirty-input accuracy bench: what corrupted measurements cost the
// reconstruction, and what the robustness stack buys back.
//
// Two corruption families, both seeded via fault::Injector so the sweep is
// deterministic and reproducible:
//
//   detectable   the injector's own measurement faults -- dropped entries
//                (NaN) and noised entries (sign flip). The robust+masked
//                pipeline auto-masks them (mask_invalid_entries) and solves
//                with the Huber loss; the plain least-squares path refuses
//                the payload with a typed diagnostic (counted as a failed
//                solve, error reported as the sentinel 1e9).
//   silent       gross multiplicative outliers (Z *= 25) that stay finite
//                and positive, so no mask can catch them. The robust
//                pipeline runs the redescending Tukey loss; plain least
//                squares chases the outliers and diverges.
//
// Per (family, n, corruption fraction) the bench reports the median-of-seeds
// median reconstruction error for the fault-free, robust, and plain
// pipelines. Output: pretty table + CSV via bench_util, plus
// bench_results/robust_accuracy.json.
//
// `--quick` trims the sweep for CI and turns the ISSUE's acceptance criteria
// into exit-code gates:
//   * robust+masked median error at 10% detectable corruption stays within
//     2x of the fault-free error at every n in the sweep;
//   * the plain least-squares path is measurably worse on the same corrupted
//     input (refusal on the detectable family, > 2x the robust error on the
//     silent family).
#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_util.hpp"

using namespace parma;

namespace {

constexpr Real kFailedSolve = 1e9;  ///< JSON-safe sentinel for a typed refusal

struct SweepPoint {
  std::string family;
  Index n = 0;
  Real fraction = 0.0;
  Real clean_err = 0.0;   ///< fault-free pipeline, same scenario/noise
  Real robust_err = 0.0;  ///< robust+masked (detectable) / Tukey (silent)
  Real plain_err = 0.0;   ///< plain least squares on the corrupted payload
  Index corrupted = 0;    ///< corrupted entries, summed over seeds
};

Real median_abs_rel_error(const circuit::ResistanceGrid& recovered,
                          const circuit::ResistanceGrid& truth) {
  std::vector<Real> errs;
  errs.reserve(truth.flat().size());
  for (std::size_t e = 0; e < truth.flat().size(); ++e) {
    errs.push_back(std::fabs(recovered.flat()[e] - truth.flat()[e]) / truth.flat()[e]);
  }
  std::nth_element(errs.begin(), errs.begin() + errs.size() / 2, errs.end());
  return errs[errs.size() / 2];
}

Real median_of(std::vector<Real> values) {
  std::nth_element(values.begin(), values.begin() + values.size() / 2, values.end());
  return values[values.size() / 2];
}

struct Scenario {
  circuit::ResistanceGrid truth{1, 1};
  mea::Measurement measurement;
};

Scenario make_scenario(Index n, std::uint64_t seed) {
  Rng rng(seed);
  const mea::DeviceSpec spec = mea::square_device(n);
  Scenario s{mea::generate_field(spec, mea::random_scenario(spec, 1, rng), rng), {}};
  mea::MeasurementOptions mopt;
  mopt.noise_fraction = 0.005;
  s.measurement = mea::measure(spec, s.truth, mopt, rng);
  return s;
}

// Injector-seeded corruption of `fraction` of the entries, split between the
// drop (NaN) and noise (negate / x25) faults. Returns the corrupted count.
Index corrupt(mea::Measurement& m, Real fraction, std::uint64_t seed, bool detectable) {
  fault::Injector injector(seed);
  fault::Schedule schedule;
  schedule.probability = fraction / 2.0;
  injector.arm(fault::Point::kDropMeasurement, schedule);
  injector.arm(fault::Point::kNoiseMeasurement, schedule);
  Index corrupted = 0;
  for (Index i = 0; i < m.z.rows(); ++i) {
    for (Index j = 0; j < m.z.cols(); ++j) {
      if (injector.should_fire(fault::Point::kDropMeasurement)) {
        m.z(i, j) = detectable ? std::numeric_limits<Real>::quiet_NaN() : m.z(i, j) * 25.0;
        ++corrupted;
      } else if (injector.should_fire(fault::Point::kNoiseMeasurement)) {
        m.z(i, j) = detectable ? -m.z(i, j) : m.z(i, j) * 25.0;
        ++corrupted;
      }
    }
  }
  return corrupted;
}

Real solve_err(const mea::Measurement& m, const circuit::ResistanceGrid& truth,
               const solver::InverseOptions& options) {
  try {
    const solver::InverseResult result = solver::recover_resistances(m, options);
    const Real err = median_abs_rel_error(result.recovered, truth);
    return std::isfinite(err) ? err : kFailedSolve;
  } catch (const ContractError&) {
    return kFailedSolve;
  } catch (const NumericalError&) {
    return kFailedSolve;
  }
}

SweepPoint run_point(const std::string& family, Index n, Real fraction, int seeds) {
  const bool detectable = family == "detectable";
  SweepPoint point;
  point.family = family;
  point.n = n;
  point.fraction = fraction;

  solver::InverseOptions plain;
  plain.max_iterations = 60;
  solver::InverseOptions robust = plain;
  robust.robust.loss = detectable ? solver::RobustLoss::kHuber : solver::RobustLoss::kTukey;

  std::vector<Real> clean_errs, robust_errs, plain_errs;
  for (int s = 1; s <= seeds; ++s) {
    const Scenario scenario = make_scenario(n, 950 + static_cast<std::uint64_t>(s));
    clean_errs.push_back(solve_err(scenario.measurement, scenario.truth, plain));

    mea::Measurement dirty = scenario.measurement;
    point.corrupted += corrupt(dirty, fraction,
                               static_cast<std::uint64_t>(s) * 7919 + 17, detectable);
    plain_errs.push_back(solve_err(dirty, scenario.truth, plain));

    mea::Measurement masked = dirty;
    if (detectable) mea::mask_invalid_entries(masked);
    robust_errs.push_back(solve_err(masked, scenario.truth, robust));
  }
  point.clean_err = median_of(clean_errs);
  point.robust_err = median_of(robust_errs);
  point.plain_err = median_of(plain_errs);
  return point;
}

void write_json(const std::vector<SweepPoint>& points, const std::string& path) {
  std::filesystem::create_directories(std::filesystem::path(path).parent_path());
  std::ofstream os(path);
  os << "{\n  \"bench\": \"robust_accuracy\",\n"
     << "  \"failed_solve_sentinel\": " << kFailedSolve << ",\n"
     << "  \"criterion\": \"robust+masked within 2x of fault-free at 10% corruption\",\n"
     << "  \"results\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SweepPoint& p = points[i];
    os << "    {\"family\": \"" << p.family << "\", \"n\": " << p.n
       << ", \"fraction\": " << p.fraction << ", \"corrupted\": " << p.corrupted
       << ", \"clean_err\": " << p.clean_err << ", \"robust_err\": " << p.robust_err
       << ", \"plain_err\": " << p.plain_err << "}"
       << (i + 1 < points.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) quick = true;
  }

  const std::vector<Index> sizes =
      quick ? std::vector<Index>{8, 16}
            : (bench::full_sweep() ? std::vector<Index>{8, 10, 12, 14, 16, 32}
                                   : std::vector<Index>{8, 12, 16, 32});
  const std::vector<Real> fractions =
      quick ? std::vector<Real>{0.1} : std::vector<Real>{0.1, 0.2, 0.3};
  const int seeds = 3;

  std::vector<SweepPoint> points;
  for (const std::string& family : {std::string("detectable"), std::string("silent")}) {
    for (Index n : sizes) {
      for (Real fraction : fractions) {
        points.push_back(run_point(family, n, fraction, seeds));
      }
    }
  }

  Table table({"family", "n", "fraction", "corrupted", "clean_err", "robust_err",
               "plain_err", "ratio_vs_clean"});
  for (const SweepPoint& p : points) {
    table.add(p.family, p.n, p.fraction, p.corrupted, p.clean_err, p.robust_err,
              p.plain_err, p.robust_err / p.clean_err);
  }
  bench::emit(table, "robust_accuracy");

  const std::string json_path = bench::results_dir() + "/robust_accuracy.json";
  write_json(points, json_path);
  std::cout << "saved: " << json_path << "\n";

  // Acceptance gates (ISSUE 5): enforced in --quick so scripts/check.sh fails
  // loudly when the robustness stack regresses.
  int failures = 0;
  for (const SweepPoint& p : points) {
    if (p.fraction != 0.1) continue;
    if (p.family == "detectable") {
      if (p.robust_err > 2.0 * p.clean_err + 1e-3) {
        std::cout << "GATE FAIL: detectable n=" << p.n << " robust_err=" << p.robust_err
                  << " exceeds 2x clean_err=" << p.clean_err << "\n";
        ++failures;
      }
      if (p.plain_err < kFailedSolve && p.plain_err < 2.0 * p.robust_err) {
        std::cout << "GATE FAIL: detectable n=" << p.n
                  << " plain least squares not measurably worse (plain=" << p.plain_err
                  << ", robust=" << p.robust_err << ")\n";
        ++failures;
      }
    } else {
      if (p.plain_err < 2.0 * p.robust_err) {
        std::cout << "GATE FAIL: silent n=" << p.n
                  << " plain least squares not measurably worse (plain=" << p.plain_err
                  << ", robust=" << p.robust_err << ")\n";
        ++failures;
      }
    }
  }
  if (quick && failures > 0) return 1;
  if (failures == 0) {
    std::cout << "\ngates: robust+masked within 2x of fault-free at 10% corruption, "
                 "plain least squares measurably worse -- all hold.\n";
  }
  return 0;
}
