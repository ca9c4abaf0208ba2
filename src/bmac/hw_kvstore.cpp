#include "bmac/hw_kvstore.hpp"

namespace bm::bmac {

void HwKvStore::touch(Entry& entry) {
  lru_.splice(lru_.begin(), lru_, entry.lru);
}

bool HwKvStore::insert_on_chip(const std::string& key,
                               fabric::VersionedValue value) {
  if (data_.size() >= capacity_) {
    if (host_ == nullptr) {
      ++overflows_;
      return false;
    }
    // Evict the least-recently-used entry to the host tier.
    const std::string victim = lru_.back();
    lru_.pop_back();
    auto it = data_.find(victim);
    host_->put(victim, std::move(it->second.value.value),
               it->second.value.version);
    data_.erase(it);
    ++evictions_;
  }
  lru_.push_front(key);
  data_.emplace(key, Entry{std::move(value), lru_.begin()});
  return true;
}

bool HwKvStore::write(const std::string& key, Bytes value,
                      fabric::Version version) {
  ++writes_;
  last_tier_ = AccessTier::kHardware;
  auto it = data_.find(key);
  if (it != data_.end()) {
    it->second.value = {std::move(value), version};
    touch(it->second);
    return true;
  }
  // An update of a host-resident key counts as a host access (the stale
  // host copy must be superseded); the fresh value lands on-chip.
  if (host_ != nullptr && host_->get(key).has_value()) {
    ++host_accesses_;
    last_tier_ = AccessTier::kHost;
    host_->erase(key);
  }
  return insert_on_chip(key, {std::move(value), version});
}

std::size_t HwKvStore::write_batch(std::vector<BatchWrite>&& writes) {
  std::size_t applied = 0;
  for (BatchWrite& w : writes)
    if (write(w.key, std::move(w.value), w.version)) ++applied;
  return applied;
}

bool HwKvStore::version_matches(
    const std::string& key, const std::optional<fabric::Version>& expected) {
  ++reads_;
  last_tier_ = AccessTier::kHardware;
  auto it = data_.find(key);
  if (it != data_.end()) {
    touch(it->second);
    return expected.has_value() && *expected == it->second.value.version;
  }
  if (host_ != nullptr) {
    ++host_accesses_;
    last_tier_ = AccessTier::kHost;
    if (const auto host_value = host_->get(key))
      return expected.has_value() && *expected == host_value->version;
  }
  return !expected.has_value();
}

std::optional<fabric::VersionedValue> HwKvStore::lookup(
    const std::string& key) const {
  const auto it = data_.find(key);
  if (it != data_.end()) return it->second.value;
  if (host_ != nullptr) return host_->get(key);
  return std::nullopt;
}

}  // namespace bm::bmac
