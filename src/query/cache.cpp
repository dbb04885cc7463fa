#include "query/cache.hpp"

#include "util/metrics.hpp"

namespace appscope::query {

ResultCache::ResultCache(std::size_t capacity) : capacity_(capacity) {}

std::optional<Result> ResultCache::get(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    if (util::MetricsRegistry::enabled()) {
      util::MetricsRegistry::global().add("query.cache.misses");
    }
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  if (util::MetricsRegistry::enabled()) {
    util::MetricsRegistry::global().add("query.cache.hits");
  }
  Result out = it->second->result;
  out.from_cache = true;
  out.bytes_scanned = 0;
  return out;
}

void ResultCache::put(const std::string& key, const Result& result) {
  if (capacity_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->result = result;
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front({key, result});
  index_[key] = lru_.begin();
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
    if (util::MetricsRegistry::enabled()) {
      util::MetricsRegistry::global().add("query.cache.evictions");
    }
  }
}

std::uint64_t ResultCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t ResultCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

}  // namespace appscope::query
