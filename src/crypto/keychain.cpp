#include "crypto/keychain.hpp"

#include "common/bytes.hpp"

namespace dapes::crypto {

Signature PrivateKey::sign(std::string_view name,
                           common::BytesView content) const {
  return sign(name, Sha256::hash(content));
}

Signature PrivateKey::sign(std::string_view name,
                           const Digest& content_digest) const {
  return Signature{id_, KeyChain::compute_mac(secret_, name, content_digest)};
}

Digest KeyChain::compute_mac(const Digest& secret, std::string_view name,
                             const Digest& content_digest) {
  Sha256 ctx;
  ctx.update(secret.view());
  ctx.update(name);
  // Length-prefix the name to prevent (name, content) boundary ambiguity.
  common::Bytes len;
  common::append_be(len, name.size(), 8);
  ctx.update(common::BytesView(len.data(), len.size()));
  ctx.update(content_digest.view());
  return ctx.final_digest();
}

Digest KeyChain::compute_mac(const Digest& secret, std::string_view name,
                             common::BytesView content) {
  return compute_mac(secret, name, Sha256::hash(content));
}

PrivateKey KeyChain::generate_key(const std::string& owner_name,
                                  uint64_t seed) {
  Sha256 secret_ctx;
  secret_ctx.update("dapes-key-secret/");
  secret_ctx.update(owner_name);
  common::Bytes seed_bytes;
  common::append_be(seed_bytes, seed, 8);
  secret_ctx.update(common::BytesView(seed_bytes.data(), seed_bytes.size()));
  Digest secret = secret_ctx.final_digest();

  Sha256 id_ctx;
  id_ctx.update("dapes-key-id/");
  id_ctx.update(secret.view());
  KeyId id{id_ctx.final_digest()};

  keys_[id] = secret;
  return PrivateKey(id, secret);
}

void KeyChain::import_key(const KeyId& id, const Digest& secret) {
  keys_[id] = secret;
}

bool KeyChain::verify(std::string_view name, common::BytesView content,
                      const Signature& sig) const {
  if (!keys_.contains(sig.signer)) return false;
  return verify(name, Sha256::hash(content), sig);
}

bool KeyChain::verify(std::string_view name, const Digest& content_digest,
                      const Signature& sig) const {
  auto it = keys_.find(sig.signer);
  if (it == keys_.end()) return false;
  return compute_mac(it->second, name, content_digest) == sig.mac;
}

const Digest* KeyChain::secret_for(const KeyId& id) const {
  auto it = keys_.find(id);
  return it == keys_.end() ? nullptr : &it->second;
}

void KeyChain::add_trust_anchor(const KeyId& id) { anchors_[id] = true; }

bool KeyChain::is_trusted(const KeyId& id) const {
  auto it = anchors_.find(id);
  return it != anchors_.end() && it->second;
}

}  // namespace dapes::crypto
