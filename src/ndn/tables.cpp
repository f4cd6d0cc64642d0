#include "ndn/tables.hpp"

#include "trace/trace.hpp"

namespace dapes::ndn {

// ------------------------------------------------------------ ContentStore

void ContentStore::lru_push_back(NameTree::Entry* e) {
  NameTree::CsState* cs = e->cs.get();
  cs->lru_prev = lru_tail_;
  cs->lru_next = nullptr;
  if (lru_tail_ != nullptr) {
    lru_tail_->cs->lru_next = e;
  } else {
    lru_head_ = e;
  }
  lru_tail_ = e;
}

void ContentStore::lru_unlink(NameTree::Entry* e) {
  NameTree::CsState* cs = e->cs.get();
  if (cs->lru_prev != nullptr) {
    cs->lru_prev->cs->lru_next = cs->lru_next;
  } else {
    lru_head_ = cs->lru_next;
  }
  if (cs->lru_next != nullptr) {
    cs->lru_next->cs->lru_prev = cs->lru_prev;
  } else {
    lru_tail_ = cs->lru_prev;
  }
  cs->lru_prev = cs->lru_next = nullptr;
}

void ContentStore::touch(NameTree::Entry* e) {
  lru_unlink(e);
  lru_push_back(e);
}

void ContentStore::erase(NameTree::Entry* e) {
  content_bytes_ -= e->cs->data->content().size();
  lru_unlink(e);
  e->cs.reset();
  --size_;
  tree_->cleanup(e);
}

bool ContentStore::refresh(const Data& data, TimePoint now) {
  NameTree::Entry* e = tree_->find_exact(data.name());
  if (e == nullptr || e->cs == nullptr) return false;
  e->cs->expires = now + data.freshness();
  touch(e);
  DAPES_TRACE_NAMED(trace::EventType::kCsInsert, data.name(),
                    static_cast<uint64_t>(data.content().size()),
                    /*refreshed=*/1);
  return true;
}

void ContentStore::insert(const Data& data, TimePoint now) {
  if (!refresh(data, now)) insert_new(std::make_shared<const Data>(data), now);
}

void ContentStore::insert(DataPtr data, TimePoint now) {
  if (data != nullptr && !refresh(*data, now)) insert_new(std::move(data), now);
}

void ContentStore::insert_new(DataPtr data, TimePoint now) {
  if (size_ >= capacity_) {
    evict_one();
  }
  TimePoint expires = now + data->freshness();
  // lookup() probes again: the eviction above may have pruned the entry.
  NameTree::Entry* e = tree_->lookup(data->name());
  const uint64_t content_bytes = data->content().size();
  DAPES_TRACE_NAMED(trace::EventType::kCsInsert, data->name(), content_bytes,
                    /*refreshed=*/0);
  e->cs = std::make_unique<NameTree::CsState>();
  content_bytes_ += content_bytes;
  e->cs->data = std::move(data);
  e->cs->expires = expires;
  lru_push_back(e);
  ++size_;
}

DataPtr ContentStore::find(const Name& name, bool can_be_prefix,
                           TimePoint now) {
  if (!can_be_prefix) {
    NameTree::Entry* e = tree_->find_exact(name);
    if (e == nullptr || e->cs == nullptr) {
      DAPES_TRACE_NAMED(trace::EventType::kCsMiss, name);
      return nullptr;
    }
    if (e->cs->expires <= now) {
      DAPES_TRACE_NAMED(trace::EventType::kCsExpire, name);
      erase(e);
      DAPES_TRACE_NAMED(trace::EventType::kCsMiss, name);
      return nullptr;
    }
    touch(e);
    DAPES_TRACE_NAMED(trace::EventType::kCsHit, name);
    return e->cs->data;
  }

  // Prefix query: first non-expired entry at or under `name` in component
  // order. Pre-order descent over sorted_children() visits candidates in
  // exactly the std::map reference's iteration order; expired entries
  // seen before the hit are evicted, as the reference does while
  // scanning. (Eviction is deferred until the scan ends so tree cleanup
  // cannot disturb the traversal — the same entries end up erased.)
  NameTree::Entry* base = tree_->find_exact(name);
  if (base == nullptr) {
    DAPES_TRACE_NAMED(trace::EventType::kCsMiss, name);
    return nullptr;
  }
  std::vector<NameTree::Entry*> expired;
  NameTree::Entry* hit = scan_prefix(base, now, expired);
  for (NameTree::Entry* e : expired) {
    DAPES_TRACE_NAMED(trace::EventType::kCsExpire, e->cs->data->name());
    erase(e);
  }
  if (hit == nullptr) {
    DAPES_TRACE_NAMED(trace::EventType::kCsMiss, name);
    return nullptr;
  }
  touch(hit);
  DAPES_TRACE_NAMED(trace::EventType::kCsHit, hit->cs->data->name());
  return hit->cs->data;
}

NameTree::Entry* ContentStore::scan_prefix(
    NameTree::Entry* e, TimePoint now,
    std::vector<NameTree::Entry*>& expired) {
  if (e->cs != nullptr) {
    if (e->cs->expires > now) return e;
    expired.push_back(e);
  }
  for (NameTree::Entry* child : NameTree::sorted_children(*e)) {
    if (NameTree::Entry* hit = scan_prefix(child, now, expired)) return hit;
  }
  return nullptr;
}

void ContentStore::evict_one() {
  if (lru_head_ == nullptr) return;
  DAPES_TRACE_NAMED(trace::EventType::kCsEvict,
                    lru_head_->cs->data->name());
  erase(lru_head_);
}

// -------------------------------------------------------------------- Pit

PitEntry* Pit::find(const Name& name) {
  NameTree::Entry* e = tree_->find_exact(name);
  return (e == nullptr) ? nullptr : e->pit.get();
}

std::vector<Name> Pit::matches_for_data(const Name& data_name) const {
  std::vector<Name> out;
  // One probe finds the data name's entry or its deepest existing prefix;
  // every shorter prefix is then a parent pointer away.
  NameTree::Entry* e = tree_->find_longest_prefix(data_name);
  if (e != nullptr && e->name.size() == data_name.size()) {
    if (e->pit != nullptr) out.push_back(data_name);  // exact match
    e = e->parent;
  }
  // CanBePrefix entries on the proper prefixes, deepest first.
  for (; e != nullptr; e = e->parent) {
    if (e->pit != nullptr && e->pit->can_be_prefix) {
      out.push_back(e->pit->name);
    }
  }
  return out;
}

PitEntry& Pit::insert(const Name& name) {
  NameTree::Entry* e = tree_->lookup(name);
  if (e->pit == nullptr) {
    e->pit = std::make_unique<PitEntry>();
    e->pit->name = name;
    ++size_;
    DAPES_TRACE_NAMED(trace::EventType::kPitInsert, name);
  }
  return *e->pit;
}

void Pit::erase(const Name& name) {
  NameTree::Entry* e = tree_->find_exact(name);
  if (e == nullptr || e->pit == nullptr) return;
  e->pit.reset();
  --size_;
  tree_->cleanup(e);
}

namespace {
uint64_t nonce_fingerprint(const Name& name, uint32_t nonce) {
  // name.hash() is a load — recording a dead nonce costs no re-hash.
  return name.hash() ^ (0x9e3779b97f4a7c15ULL * nonce);
}
}  // namespace

bool Pit::has_nonce(const Name& name, uint32_t nonce) const {
  NameTree::Entry* e = tree_->find_exact(name);
  if (e != nullptr && e->pit != nullptr && e->pit->nonces.contains(nonce)) {
    return true;
  }
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

// -------------------------------------------------------------------- Fib

void Fib::add_route(const Name& prefix, FaceId face) {
  NameTree::Entry* e = tree_->lookup(prefix);
  if (e->fib == nullptr) {
    e->fib = std::make_unique<NameTree::FibState>();
    ++size_;
  }
  e->fib->faces.insert(face);
  DAPES_TRACE_NAMED(trace::EventType::kFibAdd, prefix,
                    static_cast<uint64_t>(face));
}

std::vector<FaceId> Fib::lookup(const Name& name) const {
  // Longest prefix match: the deepest existing prefix, then parent
  // pointers up to the first entry with a route.
  for (NameTree::Entry* e = tree_->find_longest_prefix(name); e != nullptr;
       e = e->parent) {
    if (e->fib != nullptr) {
      DAPES_TRACE_NAMED(trace::EventType::kFibHit, name,
                        static_cast<uint64_t>(e->name.size()));
      return std::vector<FaceId>(e->fib->faces.begin(), e->fib->faces.end());
    }
  }
  DAPES_TRACE_NAMED(trace::EventType::kFibMiss, name);
  return {};
}

}  // namespace dapes::ndn
