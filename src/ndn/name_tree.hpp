/// @file
/// Shared name-tree data plane (NFD's NameTree, sized for DAPES).
///
/// One hash table holds every name the forwarder's tables care about. Each
/// entry is keyed by the Name's precomputed FNV-1a hash (which encodes the
/// component count via separators, so (depth, hash) collisions across
/// depths are already rare; candidates are verified by flat compares of
/// the two names' buffers). An entry's name is a prefix handle that
/// shares the buffer of the name it was inserted for, so the entries
/// created for one insert cost no name copies. The
/// entries double as a component trie: every entry points at its parent
/// (the one-component-shorter prefix) and keeps its children sorted by
/// last component, so a pre-order walk visits names in exactly the order
/// a std::map<Name, ...> would.
///
/// CS, PIT and FIB state hang off the *same* entry (pointer-sized slots,
/// allocated on demand), which is what makes the data plane cheap:
///
///   * exact match            — one hash probe (Name::hash is a load);
///   * prefix probe at depth d — one probe with Name::prefix_hash(d),
///     no prefix Name is ever materialized;
///   * all-prefixes walks (PIT matches_for_data, FIB longest-prefix
///     match) — O(depth) probes off the name's stored prefix hashes;
///   * CS LRU — an intrusive entry-pointer list, no Name copies;
///   * ordered prefix scans (CanBePrefix lookups) — pre-order trie
///     descent, identical visit order to the std::map reference.
///
/// Entries with no payloads and no children are removed eagerly
/// (cleanup()), so the table never outgrows the live table state.
/// src/ndn/tables.hpp builds the public ContentStore/Pit/Fib on top; the
/// std::map reference they are checked against lives in the test tree
/// (tests/oracles/tables_ref.hpp, driven by tests/test_name_tree.cpp).
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <unordered_set>
#include <vector>

#include "common/time.hpp"
#include "ndn/packet.hpp"
#include "sim/scheduler.hpp"

namespace dapes::ndn {

/// Identifier the Forwarder assigns when a face is added (mirrored from
/// face.hpp so the tables stay header-independent of faces).
using FaceId = uint32_t;
using common::TimePoint;

/// One pending Interest: who asked, which nonces were seen, when it dies.
struct PitEntry {
  Name name;                  ///< the pending Interest's name
  bool can_be_prefix = false; ///< Interest's CanBePrefix selector
  /// Faces the Interest arrived on (data goes back to these).
  std::vector<FaceId> in_faces;
  /// Set when this node relayed the Interest onto the broadcast medium.
  /// On a broadcast face the upstream (data source) and downstream
  /// (requester) share one face; a relaying node must re-broadcast the
  /// returning Data exactly when it forwarded the Interest itself.
  bool relayed_to_network = false;
  /// Nonces seen for this name — duplicates indicate loops.
  std::unordered_set<uint32_t> nonces;
  sim::EventId expiry_event{};  ///< scheduled timeout event
};

/// The shared hashed name trie all three tables hang their state off
/// (see file comment).
class NameTree {
 public:
  struct Entry;

  /// CS state: shared Data handle, expiry, intrusive LRU links.
  struct CsState {
    DataPtr data;              ///< the cached packet (shared, immutable)
    TimePoint expires{};       ///< freshness deadline
    Entry* lru_prev = nullptr; ///< intrusive LRU list link
    Entry* lru_next = nullptr; ///< intrusive LRU list link
  };

  /// FIB state: the next-hop set for this exact prefix.
  struct FibState {
    std::set<FaceId> faces;  ///< next-hop faces, ordered
  };

  /// One name's node in the shared trie/hash table.
  struct Entry {
    Name name;    ///< full name of this node (shares the inserted name's buffer)
    size_t hash;  ///< == name.hash(), stored for cheap rehash/probe
    Entry* parent = nullptr;       ///< one-component-shorter prefix
    std::vector<Entry*> children;  ///< sorted by last component
    Entry* hash_next = nullptr;    ///< bucket chain

    // Table payloads; an entry lives while any slot (or a child) does.
    std::unique_ptr<CsState> cs;    ///< Content Store slot
    std::unique_ptr<PitEntry> pit;  ///< PIT slot
    std::unique_ptr<FibState> fib;  ///< FIB slot

    /// Whether any table slot is occupied.
    bool has_payload() const { return cs || pit || fib; }
  };

  /// An empty tree.
  NameTree() = default;
  ~NameTree();
  NameTree(const NameTree&) = delete;             ///< not copyable
  NameTree& operator=(const NameTree&) = delete;  ///< not copyable

  /// Find-or-insert the entry for @p name, creating payload-free ancestor
  /// entries up to the root. One probe when present; O(depth) on insert.
  Entry* lookup(const Name& name);

  /// Exact-match probe; nullptr when absent.
  Entry* find_exact(const Name& name) const;

  /// Probe for the @p depth-component prefix of @p name using its stored
  /// per-prefix hash — no prefix Name is materialized.
  Entry* find_prefix(const Name& name, size_t depth) const;

  /// Remove @p entry and then every ancestor left with no payload and no
  /// children. Call after clearing a payload slot; entries still carrying
  /// state are left untouched.
  void cleanup(Entry* entry);

  /// Entry count, including payload-free interior entries.
  size_t size() const { return size_; }

 private:
  size_t bucket_of(size_t hash) const {
    return hash & (buckets_.size() - 1);
  }
  void grow_if_needed();
  /// The entry whose name equals the first @p depth components of
  /// @p name, or nullptr. @p hash must be name.prefix_hash(depth).
  Entry* probe(size_t hash, const Name& name, size_t depth) const;

  std::vector<Entry*> buckets_;  // power-of-two size; empty until first use
  size_t size_ = 0;
};

}  // namespace dapes::ndn
