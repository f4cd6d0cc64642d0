#include "oracles/tables_ref.hpp"

namespace dapes::ndn::ref {

bool ContentStore::refresh(const Name& name, TimePoint expires) {
  auto it = entries_.find(name);
  if (it == entries_.end()) return false;
  it->second.expires = expires;
  touch(name);
  return true;
}

void ContentStore::insert(DataPtr data, TimePoint now) {
  if (!data) return;
  if (refresh(data->name(), now + data->freshness())) return;
  if (entries_.size() >= capacity_) {
    evict_one();
  }
  TimePoint expires = now + data->freshness();
  lru_.push_back(data->name());
  auto lru_it = std::prev(lru_.end());
  content_bytes_ += data->content().size();
  Name name = data->name();
  entries_.emplace(std::move(name), Entry{std::move(data), expires, lru_it});
}

DataPtr ContentStore::find(const Name& name, bool can_be_prefix,
                           TimePoint now) {
  auto expired = [&](const Entry& e) { return e.expires <= now; };
  if (!can_be_prefix) {
    auto it = entries_.find(name);
    if (it == entries_.end()) return nullptr;
    if (expired(it->second)) {
      content_bytes_ -= it->second.data->content().size();
      lru_.erase(it->second.lru_it);
      entries_.erase(it);
      return nullptr;
    }
    touch(name);
    return it->second.data;
  }
  // Prefix query: first non-expired entry at or after `name` that it
  // prefixes.
  auto it = entries_.lower_bound(name);
  while (it != entries_.end() && name.is_prefix_of(it->first)) {
    if (expired(it->second)) {
      content_bytes_ -= it->second.data->content().size();
      lru_.erase(it->second.lru_it);
      it = entries_.erase(it);
      continue;
    }
    touch(it->first);
    return it->second.data;
  }
  return nullptr;
}

void ContentStore::touch(const Name& name) {
  auto it = entries_.find(name);
  if (it == entries_.end()) return;
  lru_.erase(it->second.lru_it);
  lru_.push_back(name);
  it->second.lru_it = std::prev(lru_.end());
}

void ContentStore::evict_one() {
  if (lru_.empty()) return;
  Name victim = lru_.front();
  lru_.pop_front();
  auto it = entries_.find(victim);
  if (it != entries_.end()) {
    content_bytes_ -= it->second.data->content().size();
    entries_.erase(it);
  }
}

PitEntry* Pit::find(const Name& name) {
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : &it->second;
}

std::vector<Name> Pit::matches_for_data(const Name& data_name) const {
  std::vector<Name> out;
  // Exact match.
  if (entries_.contains(data_name)) out.push_back(data_name);
  // CanBePrefix entries: every PIT name that prefixes data_name. Walk the
  // chain of proper prefixes (data names are shallow — collection/file/seq
  // — so this is at most a handful of lookups).
  for (size_t n = data_name.size(); n-- > 0;) {
    Name prefix = data_name.prefix(n);
    auto it = entries_.find(prefix);
    if (it != entries_.end() && it->second.can_be_prefix) {
      out.push_back(prefix);
    }
  }
  return out;
}

PitEntry& Pit::insert(const Name& name) {
  auto [it, inserted] = entries_.try_emplace(name);
  if (inserted) it->second.name = name;
  return it->second;
}

void Pit::erase(const Name& name) { entries_.erase(name); }

namespace {
uint64_t nonce_fingerprint(const Name& name, uint32_t nonce) {
  return std::hash<Name>{}(name) ^ (0x9e3779b97f4a7c15ULL * nonce);
}
}  // namespace

bool Pit::has_nonce(const Name& name, uint32_t nonce) const {
  auto it = entries_.find(name);
  if (it != entries_.end() && it->second.nonces.contains(nonce)) return true;
  return dead_set_.contains(nonce_fingerprint(name, nonce));
}

void Pit::record_dead_nonce(const Name& name, uint32_t nonce) {
  uint64_t fp = nonce_fingerprint(name, nonce);
  if (!dead_set_.insert(fp).second) return;
  dead_order_.push_back(fp);
  if (dead_order_.size() > kDeadNonceCap) {
    dead_set_.erase(dead_order_.front());
    dead_order_.pop_front();
  }
}

void Fib::add_route(const Name& prefix, FaceId face) {
  routes_[prefix].insert(face);
}

std::vector<FaceId> Fib::lookup(const Name& name) const {
  // Longest prefix match: try progressively shorter prefixes.
  for (size_t n = name.size() + 1; n-- > 0;) {
    Name prefix = name.prefix(n);
    auto it = routes_.find(prefix);
    if (it != routes_.end() && !it->second.empty()) {
      return std::vector<FaceId>(it->second.begin(), it->second.end());
    }
  }
  return {};
}

}  // namespace dapes::ndn::ref
