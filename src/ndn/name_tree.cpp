#include "ndn/name_tree.hpp"

#include <algorithm>

namespace dapes::ndn {

namespace {

/// True iff @p candidate equals the first @p depth components of @p name:
/// a hash check, then flat compares of the two names' buffers.
bool equals_prefix_of(const NameTree::Entry& candidate, const Name& name,
                      size_t depth) {
  return candidate.name.size() == depth && candidate.name.is_prefix_of(name);
}

/// Orders sibling entries by their last (depth-th) component.
struct LastComponentLess {
  size_t depth;
  bool operator()(const NameTree::Entry* a, const Component& key) const {
    return a->name[depth - 1] < key;
  }
};

}  // namespace

NameTree::~NameTree() {
  for (Entry* head : buckets_) {
    while (head != nullptr) {
      Entry* next = head->hash_next;
      delete head;
      head = next;
    }
  }
}

NameTree::Entry* NameTree::probe(size_t hash, const Name& name,
                                 size_t depth) const {
  if (buckets_.empty()) return nullptr;
  for (Entry* e = buckets_[bucket_of(hash)]; e != nullptr; e = e->hash_next) {
    if (e->hash == hash && equals_prefix_of(*e, name, depth)) return e;
  }
  return nullptr;
}

NameTree::Entry* NameTree::find_exact(const Name& name) const {
  return probe(name.hash(), name, name.size());
}

NameTree::Entry* NameTree::find_prefix(const Name& name, size_t depth) const {
  if (depth > name.size()) depth = name.size();
  return probe(name.prefix_hash(depth), name, depth);
}

void NameTree::grow_if_needed() {
  if (buckets_.empty()) {
    buckets_.assign(64, nullptr);
    return;
  }
  if (size_ <= buckets_.size()) return;
  std::vector<Entry*> old = std::move(buckets_);
  buckets_.assign(old.size() * 2, nullptr);
  for (Entry* head : old) {
    while (head != nullptr) {
      Entry* next = head->hash_next;
      size_t b = bucket_of(head->hash);
      head->hash_next = buckets_[b];
      buckets_[b] = head;
      head = next;
    }
  }
}

NameTree::Entry* NameTree::lookup(const Name& name) {
  if (Entry* e = find_exact(name)) return e;

  // Deepest existing ancestor, then create the chain below it. Every
  // prefix hash is a load from name's buffer.
  size_t have = name.size();  // name itself is known absent
  Entry* parent = nullptr;
  while (have > 0) {
    if ((parent = find_prefix(name, have - 1)) != nullptr) break;
    --have;
  }

  Entry* e = parent;
  for (size_t d = have; d <= name.size(); ++d) {
    grow_if_needed();
    Entry* child = new Entry();
    child->name = name.prefix(d);  // shares name's buffer
    child->hash = name.prefix_hash(d);
    child->parent = e;
    if (e != nullptr) {
      // Keep children sorted by last component so trie walks enumerate
      // names in std::map order.
      auto pos = std::lower_bound(e->children.begin(), e->children.end(),
                                  name[d - 1], LastComponentLess{d});
      e->children.insert(pos, child);
    }
    size_t b = bucket_of(child->hash);
    child->hash_next = buckets_[b];
    buckets_[b] = child;
    ++size_;
    e = child;
  }
  return e;
}

void NameTree::cleanup(Entry* entry) {
  while (entry != nullptr && !entry->has_payload() && entry->children.empty()) {
    Entry* parent = entry->parent;
    // Unlink from the bucket chain.
    Entry** link = &buckets_[bucket_of(entry->hash)];
    while (*link != entry) link = &(*link)->hash_next;
    *link = entry->hash_next;
    // Unlink from the parent's sorted child list: last components are
    // unique among siblings, so the insertion-order binary search lands
    // exactly on this entry.
    if (parent != nullptr) {
      const size_t d = entry->name.size();
      auto it = std::lower_bound(parent->children.begin(),
                                 parent->children.end(), entry->name[d - 1],
                                 LastComponentLess{d});
      parent->children.erase(it);
    }
    delete entry;
    --size_;
    entry = parent;
  }
}

}  // namespace dapes::ndn
