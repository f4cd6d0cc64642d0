/// @file
/// NFD-lite data plane tables: Content Store, Pending Interest Table, and
/// Forwarding Information Base (paper Fig. 1).
///
/// All three are views over one shared NameTree (src/ndn/name_tree.hpp):
/// exact lookups are a single hash probe on the Name's stored hash; PIT
/// all-prefix matching and FIB longest-prefix match take one probe for
/// the deepest existing prefix and then follow parent pointers; CanBePrefix
/// scans walk the trie's child lists, sorted on demand into std::map
/// order; and the CS LRU is an intrusive list of tree-entry pointers — no
/// Name is copied or compared byte-by-byte on the forwarding path.
/// Semantics are bit-identical to the std::map reference implementation
/// in the test tree (tests/oracles/tables_ref.hpp);
/// tests/test_name_tree.cpp proves it on randomized workloads. Sizes are
/// bounded; the CS evicts LRU, which is what lets pure forwarders serve
/// overheard data (paper §V-A) without unbounded memory.
///
/// Standalone construction (`ContentStore cs;`) gives each table a private
/// tree; a Forwarder passes one shared tree to all three so a name's CS,
/// PIT and FIB state share an entry.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/time.hpp"
#include "ndn/name_tree.hpp"
#include "ndn/packet.hpp"
#include "sim/scheduler.hpp"

namespace dapes::ndn {

/// In-network cache of Data packets.
///
/// Entries expire after the packet's FreshnessPeriod (short-lived data
/// such as discovery responses must not be served stale); lookups skip
/// and evict expired entries. Entries are shared DataPtr handles: caching
/// never deep-copies content or wire bytes.
class ContentStore {
 public:
  /// CS holding up to @p capacity entries, on @p tree (a private tree
  /// when null).
  explicit ContentStore(size_t capacity = 4096,
                        std::shared_ptr<NameTree> tree = nullptr)
      : capacity_(capacity),
        tree_(tree ? std::move(tree) : std::make_shared<NameTree>()) {}

  /// Insert (or refresh) a Data packet, stamped with the current time.
  /// A new entry wraps the Data into a shared handle (a cheap,
  /// slice-sharing copy of the packet struct — not of its bytes); a
  /// refresh of an existing name allocates nothing. Both overloads trace
  /// one `cs.insert` record, with `refreshed=1` on a refresh.
  void insert(const Data& data, TimePoint now = TimePoint::zero());
  /// Insert (or refresh) an already-shared Data handle.
  void insert(DataPtr data, TimePoint now = TimePoint::zero());

  /// Exact-name lookup; @p can_be_prefix widens to "any data under name".
  /// Returns a shared handle (nullptr on miss).
  DataPtr find(const Name& name, bool can_be_prefix = false,
               TimePoint now = TimePoint::zero());

  /// Whether an entry with this exact name exists (expired or not).
  bool contains(const Name& name) const {
    NameTree::Entry* e = tree_->find_exact(name);
    return e != nullptr && e->cs != nullptr;
  }
  /// Live entries stored.
  size_t size() const { return size_; }
  /// Entry cap (LRU eviction beyond it).
  size_t capacity() const { return capacity_; }

  /// Approximate memory footprint (content bytes), for Table-I style
  /// system-load reporting.
  size_t content_bytes() const { return content_bytes_; }

 private:
  /// Bump the expiry and LRU position of @p data's existing entry and
  /// trace the refresh; false when the name has no CS entry.
  bool refresh(const Data& data, TimePoint now);
  /// Cache @p data under a name that refresh() just found absent.
  void insert_new(DataPtr data, TimePoint now);
  void touch(NameTree::Entry* e);
  void evict_one();
  /// Drop the CS state of @p e (LRU unlink, byte accounting, tree
  /// cleanup).
  void erase(NameTree::Entry* e);
  /// Pre-order descent for CanBePrefix queries: returns the first live
  /// CS entry under @p e in component order (nullptr if none),
  /// collecting expired entries seen on the way into @p expired.
  NameTree::Entry* scan_prefix(NameTree::Entry* e, TimePoint now,
                               std::vector<NameTree::Entry*>& expired);
  void lru_unlink(NameTree::Entry* e);
  void lru_push_back(NameTree::Entry* e);

  size_t capacity_;
  size_t size_ = 0;
  size_t content_bytes_ = 0;
  std::shared_ptr<NameTree> tree_;
  NameTree::Entry* lru_head_ = nullptr;  // least recently used
  NameTree::Entry* lru_tail_ = nullptr;
};

/// Pending Interest Table over the shared NameTree.
class Pit {
 public:
  /// PIT on @p tree (a private tree when null).
  explicit Pit(std::shared_ptr<NameTree> tree = nullptr)
      : tree_(tree ? std::move(tree) : std::make_shared<NameTree>()) {}

  /// Find the entry with this exact name.
  PitEntry* find(const Name& name);

  /// All entries satisfied by data with @p data_name: the exact match,
  /// then CanBePrefix entries on its proper prefixes, deepest first. One
  /// probe for the name (on a miss, one per absent depth down to its
  /// deepest existing prefix), then parent pointers to the root.
  std::vector<Name> matches_for_data(const Name& data_name) const;

  /// Insert a new entry; returns a stable reference.
  PitEntry& insert(const Name& name);

  /// Remove the entry with this exact name (no-op when absent).
  void erase(const Name& name);
  /// Live entries.
  size_t size() const { return size_; }

  /// True if @p nonce was already recorded anywhere for @p name
  /// (loop detection across live entries + dead-nonce history).
  bool has_nonce(const Name& name, uint32_t nonce) const;

  /// Record into the dead nonce list (consulted after entries expire).
  void record_dead_nonce(const Name& name, uint32_t nonce);

 private:
  std::shared_ptr<NameTree> tree_;
  size_t size_ = 0;
  // Bounded FIFO of (name-hash ^ nonce) fingerprints.
  static constexpr size_t kDeadNonceCap = 8192;
  std::deque<uint64_t> dead_order_;
  std::unordered_set<uint64_t> dead_set_;
};

/// Longest-prefix-match routing table: prefix -> out-faces.
class Fib {
 public:
  /// FIB on @p tree (a private tree when null).
  explicit Fib(std::shared_ptr<NameTree> tree = nullptr)
      : tree_(tree ? std::move(tree) : std::make_shared<NameTree>()) {}

  /// Register @p face as a next hop for @p prefix.
  void add_route(const Name& prefix, FaceId face);

  /// Faces for the longest matching prefix (empty when no route): one
  /// probe for the deepest existing prefix, then parent pointers.
  std::vector<FaceId> lookup(const Name& name) const;

  /// Registered prefixes.
  size_t size() const { return size_; }

 private:
  std::shared_ptr<NameTree> tree_;
  size_t size_ = 0;
};

}  // namespace dapes::ndn
