#include "crypto/comb_cache.hpp"

namespace bm::crypto {

std::size_t CombCache::PointHash::operator()(const AffinePoint& p) const {
  // Public coordinates of a bounded set: fold two limbs.
  return static_cast<std::size_t>(p.x.w[0] ^
                                  (p.y.w[0] * 0x9e3779b97f4a7c15ull));
}

CombCache::CombCache(std::size_t max_tables)
    : tables_(max_tables), seen_once_(max_tables) {}

CombCache& CombCache::shared() {
  static CombCache cache;
  return cache;
}

std::shared_ptr<const PointCombTable> CombCache::table_for(
    const PublicKey& key) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto* table = tables_.find(key.point)) {
      ++counters_.hits;
      return *table;
    }
    if (!seen_once_.erase(key.point)) {
      seen_once_.insert(key.point, true);
      ++counters_.first_sights;
      return nullptr;
    }
    ++counters_.builds;
  }
  // Build outside the lock: table construction is the expensive part, and
  // workers building tables for distinct keys must not serialize.
  auto table =
      std::make_shared<const PointCombTable>(PointCombTable::build(key.point));
  std::lock_guard<std::mutex> lock(mutex_);
  // Another worker may have built the same table meanwhile; both are
  // identical — keep the incumbent.
  if (const auto* held = tables_.find(key.point)) return *held;
  if (tables_.insert(key.point, table)) ++counters_.evictions;
  return table;
}

CombCache::Counters CombCache::counters() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return counters_;
}

std::size_t CombCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return tables_.size();
}

void CombCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  tables_.clear();
  seen_once_.clear();
}

}  // namespace bm::crypto
