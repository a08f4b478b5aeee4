// A small LRU cache reporting hits/misses/evictions to registry counters —
// the shared shape of the service layer's plan cache (compiled pipeline
// artifacts) and result cache (byte-identical response replay).
//
// Not internally synchronized: the QueryService guards each cache with its
// own mutex, so the template stays usable in single-threaded contexts
// (tests, benchmarks) without paying for locks twice.

#ifndef UOCQA_SERVICE_LRU_CACHE_H_
#define UOCQA_SERVICE_LRU_CACHE_H_

#include <cstddef>
#include <functional>
#include <list>
#include <optional>
#include <unordered_map>
#include <utility>

#include "base/metrics.h"

namespace uocqa {

/// Fixed-capacity least-recently-used map. `capacity == 0` disables the
/// cache entirely: every Get misses and Put is a no-op, which is how the
/// service's cache-off configuration (and the cold benchmark baselines) run
/// the uncached pipeline through unchanged code paths.
template <typename K, typename V, typename Hash = std::hash<K>>
class LruCache {
 public:
  explicit LruCache(size_t capacity) : capacity_(capacity) {}

  /// Records future hit/miss/eviction events on registry counters (any may
  /// be null: that event then goes uncounted). The cache keeps no counts of
  /// its own — the registry is the one place cache traffic is read from.
  void BindCounters(metrics::Counter* hits, metrics::Counter* misses,
                    metrics::Counter* evictions) {
    hits_counter_ = hits;
    misses_counter_ = misses;
    evictions_counter_ = evictions;
  }

  /// Returns the cached value and refreshes its recency, or nullopt.
  std::optional<V> Get(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      metrics::Add(misses_counter_);
      return std::nullopt;
    }
    metrics::Add(hits_counter_);
    order_.splice(order_.begin(), order_, it->second);
    return it->second->second;
  }

  /// Inserts or overwrites `key`, making it most recent; evicts the least
  /// recently used entry when over capacity.
  void Put(const K& key, V value) {
    if (capacity_ == 0) return;
    auto it = index_.find(key);
    if (it != index_.end()) {
      it->second->second = std::move(value);
      order_.splice(order_.begin(), order_, it->second);
      return;
    }
    order_.emplace_front(key, std::move(value));
    index_.emplace(key, order_.begin());
    if (order_.size() > capacity_) {
      index_.erase(order_.back().first);
      order_.pop_back();
      metrics::Add(evictions_counter_);
    }
  }

  /// Get without touching the hit/miss counters (still refreshes recency).
  /// For re-checks after a concurrent fill race, where the semantic
  /// hit/miss event was already counted by an earlier Get.
  std::optional<V> Find(const K& key) {
    auto it = index_.find(key);
    if (it == index_.end()) return std::nullopt;
    order_.splice(order_.begin(), order_, it->second);
    return it->second->second;
  }

  /// Membership without touching recency or the counters.
  bool Contains(const K& key) const {
    return index_.find(key) != index_.end();
  }

  /// Visits every entry from most to least recently used without touching
  /// recency or the counters (the stats verb's per-plan report). `fn` must
  /// not mutate the cache.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const auto& entry : order_) fn(entry.first, entry.second);
  }

  void Clear() {
    order_.clear();
    index_.clear();
  }

  size_t size() const { return order_.size(); }
  size_t capacity() const { return capacity_; }

 private:
  size_t capacity_;
  // Front = most recently used. The index maps keys to their list node.
  std::list<std::pair<K, V>> order_;
  std::unordered_map<K, typename std::list<std::pair<K, V>>::iterator, Hash>
      index_;
  metrics::Counter* hits_counter_ = nullptr;
  metrics::Counter* misses_counter_ = nullptr;
  metrics::Counter* evictions_counter_ = nullptr;
};

}  // namespace uocqa

#endif  // UOCQA_SERVICE_LRU_CACHE_H_
