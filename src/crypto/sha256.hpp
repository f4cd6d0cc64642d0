/// @file
/// SHA-256 (FIPS 180-4) behind a runtime-dispatched engine table.
///
/// DAPES binds packet content to names via digests: the packet-digest
/// metadata format carries one SHA-256 per packet, and the Merkle-tree
/// format hashes packets into a tree whose root is signed. This is the
/// single hash primitive for the whole repository — which also makes it
/// the crypto hot path at scale, so the implementation is layered:
///
///   * `crypto::ref::sha256` — the retained from-scratch scalar reference.
///     Never dispatched away; every engine is equivalence-tested against
///     it (tests/test_sha256_vectors.cpp).
///   * `Sha256Engine` — one dispatchable block compressor: the scalar
///     reference, or SHA-NI on CPUs that have it.
///   * The active engine is picked once per process by a runtime CPUID
///     probe (SHA-NI when supported), overridable with the
///     `DAPES_SHA256_IMPL` environment variable or `set_engine()` for
///     tests and benches.
///
/// Every engine computes bit-identical FIPS 180-4 digests, so dispatch can
/// never perturb simulation results. See DESIGN.md "Crypto engine &
/// verify cache".
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.hpp"

namespace dapes::crypto {

/// 32-byte SHA-256 digest with value semantics.
struct Digest {
  /// The raw digest bytes (big-endian word serialization per FIPS 180-4).
  std::array<uint8_t, 32> bytes{};

  /// Byte-wise equality.
  bool operator==(const Digest&) const = default;
  /// Byte-wise lexicographic order (usable as a map key).
  auto operator<=>(const Digest&) const = default;

  /// Lower-case hex rendering (64 chars).
  std::string to_hex() const;
  /// Parse a 64-char hex string (throws std::invalid_argument otherwise).
  static Digest from_hex(std::string_view hex);

  /// View over the digest bytes (for embedding into wire formats).
  common::BytesView view() const { return common::BytesView(bytes.data(), bytes.size()); }
};

/// One SHA-256 implementation the dispatcher can select: a name for
/// `DAPES_SHA256_IMPL`/diagnostics and a single-stream block compressor.
struct Sha256Engine {
  /// Well-known name ("scalar" or "shani").
  const char* name = "scalar";
  /// Fold `count` consecutive 64-byte blocks at @p blocks into the eight
  /// 32-bit working variables at @p state.
  void (*compress)(uint32_t* state, const uint8_t* blocks, size_t count) =
      nullptr;
};

/// The active engine (auto-probed on first use; see set_engine()).
const Sha256Engine& engine();

/// Select the active engine by name ("scalar", "shani", or "auto" / ""
/// for the probe's choice). Returns false — leaving the active engine
/// unchanged — when the name is unknown or the CPU lacks the ISA. Not
/// thread-safe against in-flight hashing; tests and benches only.
bool set_engine(std::string_view name);

/// Every engine compiled in *and* supported by this CPU (the scalar
/// reference always included) — what the vector/equivalence suites sweep.
std::vector<const Sha256Engine*> all_engines();

namespace ref {

/// The retained scalar reference: one-shot SHA-256 that never goes
/// through the dispatch table. Equivalence baseline for every engine.
Digest sha256(common::BytesView data);

/// The scalar reference block compressor (the "scalar" engine).
void sha256_compress(uint32_t* state, const uint8_t* blocks, size_t count);

}  // namespace ref

/// Incremental SHA-256 context. Usage: update()* then final_digest().
/// Bulk block runs are folded through the active engine's compressor;
/// results are engine-independent.
class Sha256 {
 public:
  /// Fresh context (equivalent to reset()).
  Sha256();

  /// Absorb @p data.
  void update(common::BytesView data);
  /// Absorb the bytes of @p str.
  void update(std::string_view str);

  /// Finalizes and returns the digest. The context must not be reused
  /// afterwards (reset() starts a fresh hash).
  Digest final_digest();

  /// Restart the context for a fresh hash.
  void reset();

  /// One-shot convenience.
  static Digest hash(common::BytesView data);
  /// One-shot convenience over a string's bytes.
  static Digest hash(std::string_view str);

  /// hash(a || b) — used for Merkle interior nodes.
  static Digest hash_pair(const Digest& a, const Digest& b);

 private:
  std::array<uint32_t, 8> state_;
  uint64_t length_ = 0;  ///< message bytes absorbed so far
  std::array<uint8_t, 64> buffer_{};
  size_t buffer_len_ = 0;
};

}  // namespace dapes::crypto

template <>
struct std::hash<dapes::crypto::Digest> {
  size_t operator()(const dapes::crypto::Digest& d) const noexcept {
    // The digest is already uniform; fold the first 8 bytes.
    size_t h = 0;
    for (int i = 0; i < 8; ++i) h = (h << 8) | d.bytes[i];
    return h;
  }
};
