/// @file
/// Key management and packet signing.
///
/// The paper assumes each peer owns a public/private keypair and that peers
/// share "local" trust anchors so they can authenticate a collection
/// producer's metadata signature. We reproduce those *semantics* (key
/// identity, sign, verify, trust-anchor check) with a deterministic
/// stand-in scheme rather than a full RSA/ECDSA implementation:
///
///   signature = SHA256(secret_key || name || len(name) || SHA256(content))
///
/// The MAC binds the *digest* of the content, not the raw bytes — the
/// hash-then-MAC shape real signature schemes use. That structure is what
/// lets verification hash a packet's content once per frame and reuse the
/// digest across every verify call and receiver (the verify-cache layer;
/// earlier revisions MAC'd the raw content and re-hashed it on every
/// `KeyChain::verify`). Verification recomputes the MAC using the secret
/// looked up by KeyId in a registry that models "knowing the producer's
/// public key". DESIGN.md documents this substitution; every call site
/// uses the same API a real scheme would.
#pragma once

#include <map>
#include <optional>
#include <string>

#include "crypto/sha256.hpp"

namespace dapes::crypto {

/// Identifies a keypair (derived from the owner name, collision-checked
/// inside the registry).
struct KeyId {
  Digest id;  ///< the identifying digest (what KeyLocators carry)

  /// Byte-wise equality.
  bool operator==(const KeyId&) const = default;
  /// Byte-wise lexicographic order (map key).
  auto operator<=>(const KeyId&) const = default;
  /// Hex rendering for logs and diagnostics.
  std::string to_hex() const { return id.to_hex(); }
};

/// A detached signature over (name, content).
struct Signature {
  KeyId signer;  ///< which key produced the MAC
  Digest mac;    ///< the MAC over (name, content digest)

  /// Field-wise equality.
  bool operator==(const Signature&) const = default;
};

/// A private key handle. The secret never leaves the struct.
class PrivateKey {
 public:
  /// Empty (unusable) key; assign from KeyChain::generate_key.
  PrivateKey() = default;
  /// Wrap existing key material (KeyChain::generate_key uses this).
  PrivateKey(KeyId id, Digest secret) : id_(id), secret_(secret) {}

  /// The key's identity (what KeyLocators carry).
  const KeyId& id() const { return id_; }

  /// Sign (name, content): hashes the content, then MACs the digest.
  Signature sign(std::string_view name, common::BytesView content) const;

  /// Sign with a pre-computed content digest (hash-once-per-frame path).
  Signature sign(std::string_view name, const Digest& content_digest) const;

  /// Verification material. With a real asymmetric scheme this would be
  /// the public half; the MAC stand-in shares the secret (see the header
  /// comment and DESIGN.md).
  const Digest& material() const { return secret_; }

 private:
  KeyId id_;
  Digest secret_;
};

/// Registry of known keys + trust anchors.
///
/// In a deployment this is the peer's keychain: its own keys, the public
/// keys it has learned, and the set of locally-established trust anchors
/// (paper §III). `verify` checks the cryptographic binding; `is_trusted`
/// checks the anchor set.
class KeyChain {
 public:
  /// Create a keypair for @p owner_name ("/residents/alice"). Deterministic
  /// given (owner_name, seed) so tests and simulations are reproducible.
  PrivateKey generate_key(const std::string& owner_name, uint64_t seed = 0);

  /// Import another party's key material (models learning a public key).
  void import_key(const KeyId& id, const Digest& secret);
  /// Import a key handle's (id, material) pair.
  void import_key(const PrivateKey& key) {
    import_key(key.id(), key.material());
  }

  /// Cryptographic verification of a signature over (name, content).
  /// Returns false for unknown signers. Hashes the content; prefer the
  /// Digest overload when the caller already holds the content digest.
  bool verify(std::string_view name, common::BytesView content,
              const Signature& sig) const;

  /// Verify against a pre-computed content digest (what the verify-cache
  /// layer and `Data::verify` use: hash once per frame, not per call).
  bool verify(std::string_view name, const Digest& content_digest,
              const Signature& sig) const;

  /// Verification material for @p id, or null when the key is unknown.
  /// With the MAC stand-in this is the shared secret (see the file
  /// comment); the verify-result cache keys MAC verdicts on it.
  const Digest* secret_for(const KeyId& id) const;

  /// Mark @p id as a locally-established trust anchor (paper assumes
  /// peers share common local anchors).
  void add_trust_anchor(const KeyId& id);
  /// Whether @p id is in the trust-anchor set.
  bool is_trusted(const KeyId& id) const;

  /// MAC used by both sign and verify: SHA256(secret || name ||
  /// len(name) || content_digest). Exposed for PrivateKey::sign and the
  /// delivery prewarm; not part of the public protocol surface.
  static Digest compute_mac(const Digest& secret, std::string_view name,
                            const Digest& content_digest);

  /// Convenience overload that hashes @p content first.
  static Digest compute_mac(const Digest& secret, std::string_view name,
                            common::BytesView content);

 private:

  std::map<KeyId, Digest> keys_;       // KeyId -> secret material
  std::map<KeyId, bool> anchors_;      // trust anchors
};

}  // namespace dapes::crypto
