#include "core/formation_cache.hpp"

namespace parma::core {

TopologyReport FormationCache::topology(const Engine& engine, bool exact_homology) {
  const ShapeKey key{engine.spec().rows, engine.spec().cols, exact_homology};
  {
    std::lock_guard lock(mu_);
    const auto it = topology_.find(key);
    if (it != topology_.end()) {
      ++stats_.topology_hits;
      return it->second;
    }
    ++stats_.topology_misses;
  }
  // Analyze outside the lock (the expensive part); concurrent misses on the
  // same key do redundant work once but insert an identical report.
  const TopologyReport report = engine.analyze_topology(exact_homology);
  std::lock_guard lock(mu_);
  topology_.emplace(key, report);
  return report;
}

std::shared_ptr<const equations::UnknownLayout> FormationCache::layout(
    const mea::DeviceSpec& spec) {
  const ShapeKey key{spec.rows, spec.cols, false};
  std::lock_guard lock(mu_);
  const auto it = layouts_.find(key);
  if (it != layouts_.end()) {
    ++stats_.layout_hits;
    return it->second;
  }
  ++stats_.layout_misses;
  auto layout = std::make_shared<const equations::UnknownLayout>(spec);
  layouts_.emplace(key, layout);
  return layout;
}

FormationCache::Stats FormationCache::stats() const {
  std::lock_guard lock(mu_);
  return stats_;
}

std::size_t FormationCache::size() const {
  std::lock_guard lock(mu_);
  return topology_.size() + layouts_.size();
}

void FormationCache::clear() {
  std::lock_guard lock(mu_);
  topology_.clear();
  layouts_.clear();
  stats_ = {};
}

const std::shared_ptr<FormationCache>& FormationCache::global() {
  static const std::shared_ptr<FormationCache> cache = std::make_shared<FormationCache>();
  return cache;
}

}  // namespace parma::core
