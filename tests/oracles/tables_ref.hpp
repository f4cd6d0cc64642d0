/// @file
/// Reference data plane tables: the original std::map-based Content
/// Store, PIT and FIB, kept as the behavioral oracle for the hashed
/// NameTree tables (src/ndn/tables.hpp). Test-tree only: the library
/// never links it.
///
/// All three are ordered by Name so prefix queries (CanBePrefix lookups,
/// longest-prefix match) are a lower_bound away. Every observable —
/// find/insert results, LRU eviction victims, freshness expiry, LPM
/// winners — must match the NameTree implementation exactly;
/// tests/test_name_tree.cpp drives both with identical randomized
/// workloads, and bench/bench_tables.cpp measures the gap between them.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <set>
#include <unordered_set>
#include <vector>

#include "common/time.hpp"
#include "ndn/name_tree.hpp"
#include "ndn/packet.hpp"

namespace dapes::ndn::ref {

/// In-network cache of Data packets (std::map reference).
class ContentStore {
 public:
  /// CS holding up to @p capacity entries.
  explicit ContentStore(size_t capacity = 4096) : capacity_(capacity) {}

  /// Insert (or refresh) a Data packet, stamped with the current time.
  void insert(const Data& data, TimePoint now = TimePoint::zero()) {
    if (refresh(data.name(), now + data.freshness())) return;
    insert(std::make_shared<const Data>(data), now);
  }
  /// Insert (or refresh) an already-shared Data handle.
  void insert(DataPtr data, TimePoint now = TimePoint::zero());

  /// Exact-name lookup; @p can_be_prefix widens to "any data under name".
  DataPtr find(const Name& name, bool can_be_prefix = false,
               TimePoint now = TimePoint::zero());

  /// Whether an entry with this exact name exists (expired or not).
  bool contains(const Name& name) const { return entries_.contains(name); }
  /// Live entries stored.
  size_t size() const { return entries_.size(); }
  /// Entry cap (LRU eviction beyond it).
  size_t capacity() const { return capacity_; }
  /// Approximate memory footprint (content bytes).
  size_t content_bytes() const { return content_bytes_; }

 private:
  bool refresh(const Name& name, TimePoint expires);
  void touch(const Name& name);
  void evict_one();

  struct Entry {
    DataPtr data;
    TimePoint expires{};
    std::list<Name>::iterator lru_it;
  };

  size_t capacity_;
  size_t content_bytes_ = 0;
  std::map<Name, Entry> entries_;
  std::list<Name> lru_;  // front = least recently used
};

/// Pending Interest Table (std::map reference).
class Pit {
 public:
  /// Find the entry with this exact name (nullptr when absent).
  PitEntry* find(const Name& name);
  /// All entries satisfied by data named @p data_name, in map order.
  std::vector<Name> matches_for_data(const Name& data_name) const;
  /// Insert a new entry; returns a stable reference.
  PitEntry& insert(const Name& name);
  /// Remove the entry with this exact name (no-op when absent).
  void erase(const Name& name);
  /// Live entries.
  size_t size() const { return entries_.size(); }
  /// Loop detection across live entries + dead-nonce history.
  bool has_nonce(const Name& name, uint32_t nonce) const;
  /// Record into the dead nonce list (consulted after entries expire).
  void record_dead_nonce(const Name& name, uint32_t nonce);

 private:
  std::map<Name, PitEntry> entries_;
  static constexpr size_t kDeadNonceCap = 8192;
  std::list<uint64_t> dead_order_;
  std::unordered_set<uint64_t> dead_set_;
};

/// Longest-prefix-match routing table (std::map reference).
class Fib {
 public:
  /// Register @p face as a next hop for @p prefix.
  void add_route(const Name& prefix, FaceId face);
  /// Faces for the longest matching prefix (empty when no route).
  std::vector<FaceId> lookup(const Name& name) const;
  /// Registered prefixes.
  size_t size() const { return routes_.size(); }

 private:
  std::map<Name, std::set<FaceId>> routes_;
};

}  // namespace dapes::ndn::ref
