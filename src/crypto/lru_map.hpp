// Bounded least-recently-used map: the eviction policy of CombCache's table
// and seen-once sets. Not thread-safe; each owner guards it with its own
// lock.
#pragma once

#include <cstddef>
#include <functional>
#include <list>
#include <unordered_map>
#include <utility>

namespace bm::crypto {

template <class Key, class Value, class Hash = std::hash<Key>>
class LruMap {
 public:
  explicit LruMap(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  /// The value under `key`, made the most recently used; null when absent.
  Value* find(const Key& key) {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return nullptr;
    order_.splice(order_.begin(), order_, it->second.order);
    return &it->second.value;
  }

  /// Insert an absent key as the most recently used, dropping the least
  /// recently used entry when full. Returns true when it dropped one.
  bool insert(const Key& key, Value value) {
    const bool evict = entries_.size() >= capacity_;
    if (evict) {
      entries_.erase(order_.back());
      order_.pop_back();
    }
    order_.push_front(key);
    entries_.emplace(key, Entry{std::move(value), order_.begin()});
    return evict;
  }

  /// Remove `key`; false when it was absent.
  bool erase(const Key& key) {
    const auto it = entries_.find(key);
    if (it == entries_.end()) return false;
    order_.erase(it->second.order);
    entries_.erase(it);
    return true;
  }

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }

  void clear() {
    entries_.clear();
    order_.clear();
  }

 private:
  struct Entry {
    Value value;
    typename std::list<Key>::iterator order;
  };

  std::size_t capacity_;
  std::unordered_map<Key, Entry, Hash> entries_;
  std::list<Key> order_;  ///< front = most recently used
};

}  // namespace bm::crypto
