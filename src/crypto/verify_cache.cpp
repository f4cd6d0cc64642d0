#include "crypto/verify_cache.hpp"

#include <algorithm>

namespace dapes::crypto {

VerifyCounters& verify_counters() {
  static VerifyCounters counters;
  return counters;
}

namespace {
thread_local VerifyCache* t_active_cache = nullptr;
}  // namespace

VerifyCache* active_verify_cache() { return t_active_cache; }

VerifyCache* set_active_verify_cache(VerifyCache* cache) {
  VerifyCache* prev = t_active_cache;
  t_active_cache = cache;
  return prev;
}

VerifyCache::VerifyCache(size_t capacity)
    : capacity_(std::max<size_t>(8, capacity)) {
  digests_.reserve(capacity_);
  macs_.reserve(capacity_);
}

std::optional<Digest> VerifyCache::lookup_digest(const void* data,
                                                 size_t size) const {
  auto it = digests_.find(RangeKey{data, size});
  if (it == digests_.end()) {
    ++stats_.digest_misses;
    verify_counters().digest_misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  ++stats_.digest_hits;
  verify_counters().digest_hits.fetch_add(1, std::memory_order_relaxed);
  return it->second.value;
}

std::optional<bool> VerifyCache::lookup_mac(const void* data, size_t size,
                                            const Digest& secret) const {
  auto it = macs_.find(MacKey{RangeKey{data, size}, secret});
  if (it == macs_.end()) {
    ++stats_.mac_misses;
    verify_counters().mac_misses.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  ++stats_.mac_hits;
  verify_counters().mac_hits.fetch_add(1, std::memory_order_relaxed);
  return it->second.value;
}

template <typename Key, typename Value, typename Hash>
void VerifyCache::store(Map<Key, Value, Hash>& map, std::list<Key>& order,
                        const Key& key, Value value, common::Buffer anchor) {
  auto it = map.find(key);
  if (it != map.end()) {
    // Refresh: move to the back of the eviction order, update the value.
    it->second.value = std::move(value);
    order.splice(order.end(), order, it->second.lru);
    return;
  }
  if (map.size() >= capacity_) {
    const Key& victim = order.front();
    map.erase(victim);
    order.pop_front();
    ++stats_.evictions;
    verify_counters().evictions.fetch_add(1, std::memory_order_relaxed);
  }
  auto lru = order.insert(order.end(), key);
  map.emplace(key,
              Entry<Key, Value>{std::move(value), std::move(anchor), lru});
  ++stats_.insertions;
  verify_counters().insertions.fetch_add(1, std::memory_order_relaxed);
}

void VerifyCache::store_digest(const common::BufferSlice& slice,
                               const Digest& digest) {
  if (!slice.owns_storage()) return;  // nothing to anchor against reuse
  store(digests_, digest_order_, RangeKey{slice.data(), slice.size()}, digest,
        slice.buffer());
}

void VerifyCache::store_mac(const common::BufferSlice& wire,
                            const Digest& secret, bool ok) {
  if (!wire.owns_storage()) return;  // nothing to anchor against reuse
  store(macs_, mac_order_, MacKey{RangeKey{wire.data(), wire.size()}, secret},
        ok, wire.buffer());
}

void VerifyCache::clear() {
  digests_.clear();
  macs_.clear();
  digest_order_.clear();
  mac_order_.clear();
}

Digest cached_content_digest(common::BytesView content) {
  if (const VerifyCache* cache = active_verify_cache()) {
    if (auto hit = cache->lookup_digest(content.data(), content.size())) {
      return *hit;
    }
  }
  verify_counters().content_digests_computed.fetch_add(
      1, std::memory_order_relaxed);
  return Sha256::hash(content);
}

}  // namespace dapes::crypto
