/// @file
/// Interest and Data packets with NDN-TLV wire encoding.
///
/// DAPES uses ApplicationParameters on Interests to carry its bitmap
/// payloads ("bitmap Interests", paper §IV-D), and Data signatures bind
/// content to names so receivers can reason about provenance (§I). The
/// signature here is the KeyChain MAC scheme documented in
/// crypto/keychain.hpp.
///
/// Both packet classes follow the cached-wire Block idiom from the NDN
/// ecosystem:
///   * decode() keeps the source BufferSlice alive and stores large fields
///     (Content, ApplicationParameters) as zero-copy views into it;
///   * wire() returns the cached encoding — forwarding an unmodified
///     packet never re-serializes, and every in-range receiver of one
///     broadcast frame parses views into the same shared buffer;
///   * every mutator invalidates the cache.
/// A Data also knows when it is exactly `decode(wire())` — decoded and
/// never mutated since — so a sender holding such a packet can hand it to
/// every receiver of its frame in place of their decode (ndn::WifiFace).
/// Wire decode entry points are non-throwing: they return std::nullopt on
/// malformed input (the TLV Reader's ParseError stays internal).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>

#include "common/buffer.hpp"
#include "common/bytes.hpp"
#include "common/time.hpp"
#include "crypto/keychain.hpp"
#include "ndn/name.hpp"
#include "ndn/tlv.hpp"

namespace dapes::ndn {

using common::BufferSlice;
using common::Bytes;
using common::BytesView;
using common::Duration;

/// Process-wide codec instrumentation: counts actual (de)serializations
/// so tests and benches can assert the zero-copy invariants (one encode
/// per broadcast; at most one decode per frame however many nodes receive
/// it, and none for a frame that carries its sender's packet; cache hits
/// on forward).
struct CodecCounters {
  std::atomic<uint64_t> interest_encodes{0};  ///< Interest serializations
  std::atomic<uint64_t> data_encodes{0};      ///< Data serializations
  std::atomic<uint64_t> interest_decodes{0};  ///< Interest parses
  std::atomic<uint64_t> data_decodes{0};      ///< Data parses
  /// wire() calls answered from the cache without re-serializing.
  std::atomic<uint64_t> wire_cache_hits{0};

  /// Zero every counter (tests isolate phases with this).
  void reset() {
    interest_encodes = data_encodes = 0;
    interest_decodes = data_decodes = 0;
    wire_cache_hits = 0;
  }
};

/// The process-wide CodecCounters instance.
CodecCounters& codec_counters();

/// NDN Interest with cached wire encoding (see file comment).
class Interest {
 public:
  /// Empty Interest (no name).
  Interest() = default;
  /// Interest for @p name with default selectors.
  explicit Interest(Name name) : name_(std::move(name)) {}

  /// The requested name.
  const Name& name() const { return name_; }

  /// Loop-detection nonce.
  uint32_t nonce() const { return nonce_; }
  /// Set the nonce (invalidates the wire cache).
  void set_nonce(uint32_t nonce) {
    nonce_ = nonce;
    invalidate_wire();
  }

  /// May Data under a longer name satisfy this Interest?
  bool can_be_prefix() const { return can_be_prefix_; }
  /// Set CanBePrefix (invalidates the wire cache).
  void set_can_be_prefix(bool v) {
    can_be_prefix_ = v;
    invalidate_wire();
  }

  /// PIT lifetime requested by the consumer.
  Duration lifetime() const { return lifetime_; }
  /// Set the lifetime (invalidates the wire cache).
  void set_lifetime(Duration d) {
    lifetime_ = d;
    invalidate_wire();
  }

  /// Remaining hop budget (decremented per network hop).
  uint8_t hop_limit() const { return hop_limit_; }
  /// Set the hop limit (invalidates the wire cache).
  void set_hop_limit(uint8_t h) {
    hop_limit_ = h;
    invalidate_wire();
  }

  /// ApplicationParameters payload (DAPES bitmap Interests).
  BytesView app_parameters() const { return app_parameters_.view(); }
  /// Set ApplicationParameters from owned bytes (invalidates the cache).
  void set_app_parameters(Bytes params) {
    app_parameters_ = BufferSlice(std::move(params));
    invalidate_wire();
  }
  /// Set ApplicationParameters as a shared slice (invalidates the cache).
  void set_app_parameters(BufferSlice params) {
    app_parameters_ = std::move(params);
    invalidate_wire();
  }
  /// Whether ApplicationParameters are present.
  bool has_app_parameters() const { return !app_parameters_.empty(); }

  /// The cached wire encoding; serialized at most once per mutation.
  const BufferSlice& wire() const;
  /// Whether the wire cache is currently valid (tests/instrumentation).
  bool has_wire() const { return !wire_.empty(); }

  /// Deep-copy convenience (build-side compat; hot paths use wire()).
  Bytes encode() const { return wire().to_bytes(); }

  /// Parse from a shared buffer. The returned Interest keeps @p wire
  /// alive: its wire cache and ApplicationParameters are views into it.
  static std::optional<Interest> decode(BufferSlice wire);
  /// Parse from borrowed bytes (copied into owned storage first).
  static std::optional<Interest> decode(BytesView wire) {
    return decode(BufferSlice::copy_of(wire));
  }

  /// Field-wise equality (wire caches are ignored).
  bool operator==(const Interest& other) const {
    return name_ == other.name_ && nonce_ == other.nonce_ &&
           can_be_prefix_ == other.can_be_prefix_ &&
           lifetime_ == other.lifetime_ && hop_limit_ == other.hop_limit_ &&
           common::equal(app_parameters(), other.app_parameters());
  }

 private:
  void invalidate_wire() { wire_ = BufferSlice(); }

  Name name_;
  uint32_t nonce_ = 0;
  bool can_be_prefix_ = false;
  Duration lifetime_ = Duration::milliseconds(4000);
  uint8_t hop_limit_ = 32;
  BufferSlice app_parameters_;
  mutable BufferSlice wire_;
};

/// NDN Data packet with cached wire encoding (see file comment).
class Data {
 public:
  /// Empty Data (no name, no content).
  Data() = default;
  /// Data named @p name with empty content.
  explicit Data(Name name) : name_(std::move(name)) {}

  /// The packet name.
  const Name& name() const { return name_; }

  /// Content payload (a view into the decode buffer after decode()).
  BytesView content() const { return content_.view(); }
  /// The content as an anchored slice (after decode(), a ref-counted
  /// view into the frame buffer). The delivery prewarm stores it as the
  /// digest-cache anchor.
  const BufferSlice& content_slice() const { return content_; }
  /// Set content from owned bytes (invalidates the wire and digest caches).
  void set_content(Bytes content) {
    content_ = BufferSlice(std::move(content));
    content_digest_.reset();
    invalidate_wire();
  }
  /// Set content as a shared slice (invalidates the wire and digest caches).
  void set_content(BufferSlice content) {
    content_ = std::move(content);
    content_digest_.reset();
    invalidate_wire();
  }

  /// Content-Store freshness period.
  Duration freshness() const { return freshness_; }
  /// Set the freshness period (invalidates the wire cache).
  void set_freshness(Duration d) {
    freshness_ = d;
    invalidate_wire();
  }

  /// The signature, if the packet has been signed or decoded with one.
  const std::optional<crypto::Signature>& signature() const { return signature_; }

  /// Sign with the producer's key: binds (name, SHA-256(content)). Warms
  /// the content-digest cache as a side effect.
  void sign(const crypto::PrivateKey& key);

  /// Verify against a keychain. Unsigned data never verifies. When a
  /// per-trial crypto::VerifyCache is installed, a cached verdict for
  /// this packet's wire buffer short-circuits the whole check (digest,
  /// URI formatting and MAC included).
  bool verify(const crypto::KeyChain& keychain) const;

  /// SHA-256 over the content (used by metadata digests, Merkle leaves
  /// and the MAC). Hashed at most once per packet: memoized here, and
  /// served from the trial's VerifyCache — warmed once per broadcast
  /// frame — before being computed at all. Like wire(), the memo is
  /// per instance, so every receiver of a frame shares the one memo of
  /// the frame's shared packet.
  crypto::Digest content_digest() const;

  /// The cached wire encoding; serialized at most once per mutation.
  const BufferSlice& wire() const;
  /// Whether the wire cache is currently valid (tests/instrumentation).
  bool has_wire() const { return !wire_.empty(); }

  /// Deep-copy convenience (build-side compat; hot paths use wire()).
  Bytes encode() const { return wire().to_bytes(); }

  /// Whether this packet is exactly `decode(wire())`: set by decode(),
  /// kept by copies, cleared by every mutator. Only such a packet may
  /// stand in for a receiver's decode of its wire.
  bool is_wire_decode() const { return wire_decode_; }

  /// Parse from a shared buffer. The returned Data keeps @p wire alive:
  /// its wire cache and Content are views into it.
  static std::optional<Data> decode(BufferSlice wire);
  /// Parse from borrowed bytes (copied into owned storage first).
  static std::optional<Data> decode(BytesView wire) {
    return decode(BufferSlice::copy_of(wire));
  }

  /// This packet as its receivers see it: the shared decode of wire(),
  /// which keeps this packet's content-digest memo (the bytes are the
  /// same). A producer that puts it instead of the built packet lets
  /// every frame carrying it skip the receiver-side decode. Fields the
  /// wire cannot carry are the wire's (a 1.5 ms freshness reads 1 ms).
  std::shared_ptr<const Data> shared_decode() const;

  /// Field-wise equality (wire caches are ignored).
  bool operator==(const Data& other) const {
    return name_ == other.name_ && freshness_ == other.freshness_ &&
           signature_ == other.signature_ &&
           common::equal(content(), other.content());
  }

 private:
  void invalidate_wire() {
    wire_ = BufferSlice();
    wire_decode_ = false;
  }

  Name name_;
  BufferSlice content_;
  Duration freshness_ = Duration::milliseconds(10000);
  std::optional<crypto::Signature> signature_;
  mutable BufferSlice wire_;
  /// Lazy SHA-256 of content_ (see content_digest()); reset whenever the
  /// content changes.
  mutable std::optional<crypto::Digest> content_digest_;
  /// See is_wire_decode(). Last, so it sits in the tail padding after the
  /// byte-aligned digest memo and costs no bytes.
  bool wire_decode_ = false;
};

/// Shared, immutable Data handle: the CS, the forwarding pipeline,
/// application faces and queued retransmissions pass one packet around by
/// reference count. A received frame's packet is shared by every receiver
/// (ndn::frame_packet): the sender's own packet when that is the decode
/// of the frame's bytes, else one decode of them. Either way its content
/// and cached wire are views into the frame buffer.
using DataPtr = std::shared_ptr<const Data>;

/// Append @p name as a Name TLV element — the helper every codec that
/// embeds names shares.
void append_name(tlv::Writer& w, const Name& name);
/// Parse a Name TLV value into a Name whose one buffer (bytes, offsets and
/// every prefix hash) is built while the component bytes are hot, so
/// table probes on the forwarding path never re-read them.
/// @throws tlv::ParseError on a malformed value or a non-generic
/// component type.
Name parse_name(BytesView value);

}  // namespace dapes::ndn
