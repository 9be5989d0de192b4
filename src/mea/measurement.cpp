#include "mea/measurement.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/require.hpp"

namespace parma::mea {

Index MeasurementMask::masked_count() const {
  Index count = 0;
  for (const std::uint8_t b : bits) {
    if (b == 0) ++count;
  }
  return count;
}

Index masked_entry_count(const Measurement& m) {
  return m.mask ? m.mask->masked_count() : 0;
}

Index mask_invalid_entries(Measurement& m) {
  Index newly_masked = 0;
  for (Index i = 0; i < m.z.rows(); ++i) {
    for (Index j = 0; j < m.z.cols(); ++j) {
      const Real z = m.z(i, j);
      if (std::isfinite(z) && z > 0.0) continue;
      if (m.mask && !m.mask->valid(i, j)) continue;  // already masked
      if (!m.mask) m.mask.emplace(m.z.rows(), m.z.cols());
      m.mask->drop(i, j);
      ++newly_masked;
    }
  }
  return newly_masked;
}

Measurement measure(const DeviceSpec& spec, const circuit::ResistanceGrid& truth,
                    const MeasurementOptions& options, Rng& rng) {
  spec.validate();
  PARMA_REQUIRE(truth.rows() == spec.rows && truth.cols() == spec.cols,
                "ground-truth grid does not match device");
  PARMA_REQUIRE(options.noise_fraction >= 0.0 && options.noise_fraction < 0.5,
                "noise fraction in [0, 0.5)");

  Measurement m;
  m.spec = spec;
  m.z = circuit::measure_all_pairs(truth);
  m.u = linalg::DenseMatrix(spec.rows, spec.cols);
  for (Index i = 0; i < spec.rows; ++i) {
    for (Index j = 0; j < spec.cols; ++j) {
      if (options.noise_fraction > 0.0) {
        m.z(i, j) *= std::max(0.5, 1.0 + rng.normal(0.0, options.noise_fraction));
      }
      m.u(i, j) = spec.drive_voltage;
    }
  }
  return m;
}

Measurement measure_exact(const DeviceSpec& spec, const circuit::ResistanceGrid& truth) {
  Rng unused(0);
  return measure(spec, truth, MeasurementOptions{}, unused);
}

void validate_measurement(const Measurement& measurement) {
  const auto fail = [](const char* what, Index i, Index j, Real value) {
    std::ostringstream os;
    os << "invalid measurement: " << what << " at (" << i << ", " << j << "): " << value;
    throw InvalidMeasurement(os.str());
  };
  const Real volts = measurement.spec.drive_voltage;
  if (!std::isfinite(volts)) {
    std::ostringstream os;
    os << "invalid measurement: non-finite drive voltage: " << volts;
    throw InvalidMeasurement(os.str());
  }
  if (volts <= 0.0) {
    std::ostringstream os;
    os << "invalid measurement: non-positive drive voltage: " << volts;
    throw InvalidMeasurement(os.str());
  }
  if (measurement.mask) {
    const MeasurementMask& mask = *measurement.mask;
    if (mask.rows != measurement.z.rows() || mask.cols != measurement.z.cols() ||
        static_cast<Index>(mask.bits.size()) != mask.rows * mask.cols) {
      throw InvalidMeasurement("invalid measurement: mask shape does not match Z");
    }
    if (mask.masked_count() == mask.rows * mask.cols) {
      throw InvalidMeasurement("invalid measurement: every entry is masked out");
    }
  }
  for (Index i = 0; i < measurement.z.rows(); ++i) {
    for (Index j = 0; j < measurement.z.cols(); ++j) {
      if (!entry_valid(measurement, i, j)) continue;
      const Real z = measurement.z(i, j);
      if (!std::isfinite(z)) fail("non-finite Z", i, j, z);
      if (z <= 0.0) fail("non-positive Z", i, j, z);
    }
  }
  for (Index i = 0; i < measurement.u.rows(); ++i) {
    for (Index j = 0; j < measurement.u.cols(); ++j) {
      if (!entry_valid(measurement, i, j)) continue;
      const Real u = measurement.u(i, j);
      if (!std::isfinite(u)) fail("non-finite U", i, j, u);
    }
  }
}

}  // namespace parma::mea
