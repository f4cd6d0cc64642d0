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

/// Orders siblings by last component: the std::map<Name> order of names
/// that share every earlier component.
bool last_component_less(const NameTree::Entry* a, const NameTree::Entry* b) {
  const size_t d = a->name.size();
  return a->name[d - 1] < b->name[d - 1];
}

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

NameTree::Entry* NameTree::find_longest_prefix(const Name& name) const {
  if (size_ == 0) return nullptr;
  // A non-empty tree holds the root, so the walk ends at depth 0 at worst.
  for (size_t d = name.size() + 1; d-- > 0;) {
    if (Entry* e = probe(name.prefix_hash(d), name, d)) return e;
  }
  return nullptr;
}

const std::vector<NameTree::Entry*>& NameTree::sorted_children(Entry& entry) {
  std::vector<Entry*>& children = entry.children;
  if (!std::is_sorted(children.begin(), children.end(), last_component_less)) {
    std::sort(children.begin(), children.end(), last_component_less);
  }
  return children;
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
  // Deepest existing prefix (name itself when present), then create the
  // chain below it. Every prefix hash is a load from name's buffer.
  Entry* e = find_longest_prefix(name);
  for (size_t d = e == nullptr ? 0 : e->name.size() + 1; d <= name.size();
       ++d) {
    grow_if_needed();
    Entry* child = new Entry();
    child->name = name.prefix(d);  // shares name's buffer
    child->hash = name.prefix_hash(d);
    child->parent = e;
    if (e != nullptr) e->children.push_back(child);  // unordered
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
    // Swap-remove from the parent's unordered child list.
    if (parent != nullptr) {
      std::vector<Entry*>& siblings = parent->children;
      *std::find(siblings.begin(), siblings.end(), entry) = siblings.back();
      siblings.pop_back();
    }
    delete entry;
    --size_;
    entry = parent;
  }
}

}  // namespace dapes::ndn
