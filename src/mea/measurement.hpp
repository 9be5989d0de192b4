// Measurement simulation: what the wet-lab rig reports for a device placed
// on a medium with ground-truth resistance field R.
//
// The rig drives `drive_voltage` across each (horizontal, vertical) wire pair
// and reports the pairwise resistance Z_ij; physically that is the two-point
// effective resistance of the K_{m,n} network (see circuit/crossbar.hpp),
// optionally corrupted by multiplicative instrument noise.
//
// Real traffic also delivers *incomplete* sweeps: dropped pads and failed ADC
// reads leave holes in Z. MeasurementMask records which entries were actually
// measured; downstream consumers (equation generation, both solvers,
// validation) exclude masked entries from the fit instead of letting a NaN or
// a garbage read poison the whole recovery.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "circuit/crossbar.hpp"
#include "common/rng.hpp"
#include "linalg/dense_matrix.hpp"
#include "mea/device.hpp"

namespace parma::mea {

/// A measurement whose payload is physically impossible: non-finite or
/// non-positive Z (two-point resistance of a positive network is > 0), a
/// non-finite drive voltage, or a malformed mask. Thrown by
/// validate_measurement; callers that admit external data (core::Engine,
/// serve admission) surface it as a typed invalid-input error instead of
/// letting NaN reach the solver.
class InvalidMeasurement : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Per-entry validity of one Z sweep: bits(i, j) == 1 means pair (i, j) was
/// actually measured. Masked entries are excluded from equation generation
/// and from every residual -- recovery under partial boundary data stays
/// well-posed because only the two terminal (Z-consuming) equations of a
/// masked pair drop out, leaving its interior-voltage system square.
struct MeasurementMask {
  Index rows = 0;
  Index cols = 0;
  std::vector<std::uint8_t> bits;  ///< row-major; 1 = measured, 0 = dropped

  MeasurementMask() = default;
  MeasurementMask(Index rows, Index cols)
      : rows(rows), cols(cols),
        bits(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols), 1) {}

  [[nodiscard]] bool valid(Index i, Index j) const {
    return bits[static_cast<std::size_t>(i * cols + j)] != 0;
  }
  void drop(Index i, Index j) { bits[static_cast<std::size_t>(i * cols + j)] = 0; }

  [[nodiscard]] Index masked_count() const;
  [[nodiscard]] bool all_valid() const { return masked_count() == 0; }
};

/// One measurement session: everything Parma's inverse problem consumes.
struct Measurement {
  DeviceSpec spec;
  linalg::DenseMatrix z;  ///< pairwise resistance Z(i, j), kOhm
  /// End-to-end voltage per pair; the rig drives a constant supply, so every
  /// entry equals spec.drive_voltage (kept per-pair for format fidelity with
  /// the wet lab's dumps).
  linalg::DenseMatrix u;
  /// Which Z entries were actually measured; nullopt = complete sweep.
  std::optional<MeasurementMask> mask;
};

/// True when pair (i, j) carries a usable Z entry (no mask, or mask bit set).
[[nodiscard]] inline bool entry_valid(const Measurement& m, Index i, Index j) {
  return !m.mask || m.mask->valid(i, j);
}

/// Number of masked-out entries (0 when unmasked).
[[nodiscard]] Index masked_entry_count(const Measurement& m);

/// Auto-masking for dirty sweeps: every non-finite or non-positive Z entry
/// gets its mask bit cleared (materializing the mask if needed). Returns the
/// number of entries newly masked. The payload values are left in place --
/// masked entries are simply never read downstream.
Index mask_invalid_entries(Measurement& m);

struct MeasurementOptions {
  /// Multiplicative Gaussian instrument noise (stddev as a fraction of Z);
  /// 0 gives exact synthetic measurements.
  Real noise_fraction = 0.0;
};

/// Simulates a full measurement sweep of `truth`.
Measurement measure(const DeviceSpec& spec, const circuit::ResistanceGrid& truth,
                    const MeasurementOptions& options, Rng& rng);

/// Noise-free convenience overload.
Measurement measure_exact(const DeviceSpec& spec, const circuit::ResistanceGrid& truth);

/// Payload validation (spec/shape checks live in DeviceSpec::validate and
/// the consumers): every unmasked Z entry finite and positive, every unmasked
/// U entry finite, drive voltage finite and positive, mask (when present)
/// shaped like Z with at least one valid entry. Throws InvalidMeasurement
/// naming the first offending entry.
void validate_measurement(const Measurement& measurement);

}  // namespace parma::mea
