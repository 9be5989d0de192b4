// Cross-call formation cache (the per-device-session reuse described in the
// ROADMAP: many recordings of the same physical device share one topology
// analysis and one unknown layout).
//
// Keyed on the DeviceSpec's shape (rows x cols) -- the homology of the wire
// complex and the unknown layout depend only on the shape, not on measured
// values or the drive voltage. Thread-safe; one cache may serve concurrent
// Sessions.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>

#include "core/engine.hpp"
#include "equations/layout.hpp"
#include "mea/device.hpp"

namespace parma::core {

class FormationCache {
 public:
  struct Stats {
    std::uint64_t topology_hits = 0;
    std::uint64_t topology_misses = 0;
    std::uint64_t layout_hits = 0;
    std::uint64_t layout_misses = 0;
  };

  /// Topology report for the engine's device, computed at most once per
  /// (shape, exact_homology) key.
  [[nodiscard]] TopologyReport topology(const Engine& engine, bool exact_homology = false);

  /// Shared unknown layout for the device shape, constructed at most once.
  [[nodiscard]] std::shared_ptr<const equations::UnknownLayout> layout(
      const mea::DeviceSpec& spec);

  [[nodiscard]] Stats stats() const;

  /// Cached entries for distinct (shape, exact) topology keys + layouts.
  [[nodiscard]] std::size_t size() const;

  void clear();

  /// Process-wide default cache, shared by Sessions that are not given an
  /// explicit one -- this is what makes repeated sessions on the same device
  /// skip redundant setup.
  static const std::shared_ptr<FormationCache>& global();

 private:
  struct ShapeKey {
    Index rows = 0;
    Index cols = 0;
    bool exact = false;  // only meaningful for topology entries
    bool operator<(const ShapeKey& other) const {
      if (rows != other.rows) return rows < other.rows;
      if (cols != other.cols) return cols < other.cols;
      return exact < other.exact;
    }
  };

  mutable std::mutex mu_;
  std::map<ShapeKey, TopologyReport> topology_;
  std::map<ShapeKey, std::shared_ptr<const equations::UnknownLayout>> layouts_;
  Stats stats_;
};

}  // namespace parma::core
