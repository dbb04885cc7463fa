// appscope/query/cache.hpp
//
// Bounded LRU result cache keyed by (snapshot fingerprint, canonical query)
// strings. Entries from superseded snapshots age out naturally — their keys
// stop being asked for and LRU evicts them. Thread-safe; counts hits and
// misses both locally and under the query.cache.* metrics.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "query/result.hpp"

namespace appscope::query {

class ResultCache {
 public:
  /// A capacity of 0 disables caching (every lookup is a miss, nothing is
  /// stored) — benchmarks use it to measure the raw scan.
  explicit ResultCache(std::size_t capacity);

  /// Returns the cached result and bumps it to most-recently-used.
  std::optional<Result> get(const std::string& key);

  /// Inserts (or refreshes) a result, evicting the least-recently-used
  /// entry when full.
  void put(const std::string& key, const Result& result);

  std::size_t capacity() const noexcept { return capacity_; }
  std::uint64_t hits() const;
  std::uint64_t misses() const;

 private:
  struct Entry {
    std::string key;
    Result result;
  };

  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace appscope::query
