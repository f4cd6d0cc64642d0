/// @file
/// Per-trial verify-result cache keyed on frame-buffer identity.
///
/// PR 2's zero-copy wire layer made the ref-counted frame buffer the
/// stable identity of a broadcast: every in-range receiver of one frame
/// decodes views into the *same* allocation. This cache exploits that — a
/// content digest or a MAC verdict computed once for a frame serves every
/// receiver, instead of each of the N receivers re-hashing the same bytes
/// (the top-3 profile entry ROADMAP's "Kill the crypto hot path" names).
///
/// Two entry kinds share the cache:
///   * content digests, keyed (data pointer, length) — serve
///     `Data::content_digest()` and `Metadata::verify_packet`;
///   * MAC verdicts, keyed (wire pointer, length, signer secret) — serve
///     `Data::verify()` end to end, URI formatting included.
///
/// Keying on the raw pointer is sound because every entry anchors the
/// underlying `common::Buffer`: while an entry lives, the allocation
/// cannot be freed, so no second live buffer can reuse its address (the
/// ABA hazard the issue's pointer+generation scheme guards against —
/// DESIGN.md "Crypto engine & verify cache" discusses the trade). Packet
/// mutation invalidates the packet's cached wire, and any re-encode lands
/// in a fresh allocation with a different address, so stale entries can
/// never be reached — the cache invalidates *with* the wire cache.
///
/// Write contract: only the delivery prewarm stores, once per
/// transmission in delivery order, so eviction state is a pure function
/// of the trial. A receive-path miss computes locally and does NOT
/// insert. Each cache belongs to one trial and is used from that trial's
/// thread only; the process-wide counters are atomics because concurrent
/// `--jobs` trials share them.
#pragma once

#include <atomic>
#include <cstdint>
#include <list>
#include <optional>
#include <unordered_map>

#include "common/buffer.hpp"
#include "crypto/sha256.hpp"

namespace dapes::crypto {

/// Process-wide crypto instrumentation (the codec_counters() idiom):
/// aggregate hit/miss/eviction counts across every live VerifyCache, plus
/// the number of content digests actually computed — what the
/// hash-once-per-frame regression and hit-once-per-broadcast suites
/// assert on.
struct VerifyCounters {
  std::atomic<uint64_t> digest_hits{0};    ///< content-digest lookups served
  std::atomic<uint64_t> digest_misses{0};  ///< content-digest lookups missed
  std::atomic<uint64_t> mac_hits{0};       ///< MAC-verdict lookups served
  std::atomic<uint64_t> mac_misses{0};     ///< MAC-verdict lookups missed
  std::atomic<uint64_t> insertions{0};     ///< entries stored (both kinds)
  std::atomic<uint64_t> evictions{0};      ///< entries evicted (both kinds)
  /// Content digests actually computed through the cached-digest helpers
  /// (cache misses and uncached paths; cache hits do not count).
  std::atomic<uint64_t> content_digests_computed{0};

  /// Zero every counter (tests isolate phases with this).
  void reset() {
    digest_hits = digest_misses = 0;
    mac_hits = mac_misses = 0;
    insertions = evictions = 0;
    content_digests_computed = 0;
  }
};

/// The process-wide VerifyCounters instance.
VerifyCounters& verify_counters();

/// Buffer-identity keyed cache of content digests and MAC verdicts; one
/// instance per trial (see harness::Topology). See the file comment for
/// the keying and concurrency contracts.
class VerifyCache {
 public:
  /// Default per-kind entry capacity. The prewarm stores at most one
  /// entry of each kind per delivered Data frame, so the cache holds the
  /// last 8192 Data broadcasts: far more than the receivers of one
  /// delivery read, while bounding the frame buffers a trial pins.
  static constexpr size_t kDefaultCapacity = 8192;

  /// Cache with @p capacity entries per kind (minimum 8; digests and MAC
  /// verdicts are accounted separately).
  explicit VerifyCache(size_t capacity = kDefaultCapacity);

  /// Read-side: digest of the bytes at (@p data, @p size) if cached.
  /// Counts a digest hit or miss.
  std::optional<Digest> lookup_digest(const void* data, size_t size) const;

  /// Read-side: cached verdict of the MAC check for the wire bytes at
  /// (@p data, @p size) under @p secret. Counts a MAC hit or miss.
  std::optional<bool> lookup_mac(const void* data, size_t size,
                                 const Digest& secret) const;

  /// Write-side: cache @p digest as the SHA-256 of @p slice's bytes.
  /// No-op when the slice does not own ref-counted storage (nothing to
  /// anchor). Refreshes recency on re-store.
  void store_digest(const common::BufferSlice& slice, const Digest& digest);

  /// Write-side: cache @p ok as the verdict of the MAC check over
  /// @p wire under @p secret. No-op on unanchored slices.
  void store_mac(const common::BufferSlice& wire, const Digest& secret,
                 bool ok);

  /// Write-side: drop every entry (capacity and stats are kept).
  void clear();

  /// Live entries, both kinds.
  size_t size() const { return digests_.size() + macs_.size(); }
  /// Per-kind entry capacity.
  size_t capacity() const { return capacity_; }

  /// Per-instance counter snapshot (same fields as VerifyCounters).
  struct Stats {
    uint64_t digest_hits = 0;    ///< digest lookups served by this cache
    uint64_t digest_misses = 0;  ///< digest lookups this cache missed
    uint64_t mac_hits = 0;       ///< MAC lookups served by this cache
    uint64_t mac_misses = 0;     ///< MAC lookups this cache missed
    uint64_t insertions = 0;     ///< entries stored into this cache
    uint64_t evictions = 0;      ///< entries evicted from this cache
  };
  /// This cache's counters.
  Stats stats() const { return stats_; }

 private:
  /// Identity of a byte range inside a ref-counted buffer.
  struct RangeKey {
    const void* data = nullptr;
    size_t size = 0;
    bool operator==(const RangeKey&) const = default;
  };
  /// Identity of a MAC check: the byte range plus the signer's secret.
  struct MacKey {
    RangeKey range;
    Digest secret;
    bool operator==(const MacKey&) const = default;
  };
  struct RangeKeyHash {
    size_t operator()(const RangeKey& k) const noexcept {
      // Mix the pointer and length (fibonacci multiplier).
      size_t h = reinterpret_cast<size_t>(k.data);
      h ^= k.size + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
      return h;
    }
  };
  struct MacKeyHash {
    size_t operator()(const MacKey& k) const noexcept {
      return RangeKeyHash{}(k.range) ^ std::hash<Digest>{}(k.secret);
    }
  };

  /// One cached result + the anchor that pins the buffer identity.
  template <typename Key, typename Value>
  struct Entry {
    Value value{};
    common::Buffer anchor;
    /// Position in the eviction list (least-recently-stored order).
    typename std::list<Key>::iterator lru;
  };

  template <typename Key, typename Value, typename Hash>
  using Map = std::unordered_map<Key, Entry<Key, Value>, Hash>;

  /// Shared store path: insert/refresh `key -> value`, evicting the
  /// least-recently-stored entry at capacity.
  template <typename Key, typename Value, typename Hash>
  void store(Map<Key, Value, Hash>& map, std::list<Key>& order,
             const Key& key, Value value, common::Buffer anchor);

  size_t capacity_;
  Map<RangeKey, Digest, RangeKeyHash> digests_;
  Map<MacKey, bool, MacKeyHash> macs_;
  /// Least-recently-stored eviction orders (front = oldest). Only the
  /// store path touches these, never a reader.
  std::list<RangeKey> digest_order_;
  std::list<MacKey> mac_order_;

  /// Instance stats; plain integers, since only the trial thread uses
  /// the cache. Lookups are const, hence mutable.
  mutable Stats stats_;
};

/// The calling thread's active per-trial cache (null when caching is
/// off). Installed by VerifyCacheScope on the trial thread.
VerifyCache* active_verify_cache();

/// Install @p cache as the calling thread's active cache (null allowed).
/// Returns the previous installation (for scope restore).
VerifyCache* set_active_verify_cache(VerifyCache* cache);

/// RAII thread-local installation of a trial's VerifyCache, restoring
/// the previous one on destruction (the trace::TrialScope idiom).
class VerifyCacheScope {
 public:
  /// Install @p cache for the scope's lifetime.
  explicit VerifyCacheScope(VerifyCache* cache)
      : prev_(set_active_verify_cache(cache)) {}
  ~VerifyCacheScope() { set_active_verify_cache(prev_); }
  VerifyCacheScope(const VerifyCacheScope&) = delete;
  VerifyCacheScope& operator=(const VerifyCacheScope&) = delete;

 private:
  VerifyCache* prev_;
};

/// SHA-256 of @p content through the active cache: serve a cached digest
/// when the byte range is cached, compute (and count the computation)
/// otherwise. Never inserts — the receive path stays read-only; only the
/// delivery prewarm stores entries.
Digest cached_content_digest(common::BytesView content);

}  // namespace dapes::crypto
