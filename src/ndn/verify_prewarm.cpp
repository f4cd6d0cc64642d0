#include "ndn/verify_prewarm.hpp"

#include "ndn/face.hpp"
#include "trace/trace.hpp"

namespace dapes::ndn {

void DataVerifyPrewarm::prewarm(const sim::Frame& frame) {
  // Cache keys need a ref-counted anchor; unowned payloads can't be
  // pinned, so their receivers just take the compute path.
  if (!frame.payload.owns_storage()) return;
  // The frame's own packet: decoding it here is the one decode every
  // receiver then shares. Null for Interests and undecodable payloads.
  DataPtr data = frame_packet<Data>(frame);
  if (!data) return;

  const common::BytesView content = data->content();
  std::optional<crypto::Digest> digest =
      cache_.lookup_digest(content.data(), content.size());
  const bool digest_cached = digest.has_value();
  if (!digest_cached) {
    digest = crypto::Sha256::hash(content);
    crypto::verify_counters().content_digests_computed.fetch_add(
        1, std::memory_order_relaxed);
    cache_.store_digest(data->content_slice(), *digest);
  }

  // The verdict for an unknown signer stays uncached: Data::verify
  // already short-circuits those to false without hashing.
  const std::optional<crypto::Signature>& sig = data->signature();
  const crypto::Digest* secret = sig ? trust_.secret_for(sig->signer) : nullptr;
  const common::BufferSlice& wire = data->wire();
  const bool mac_cached =
      secret == nullptr ||
      cache_.lookup_mac(wire.data(), wire.size(), *secret).has_value();
  if (!mac_cached) {
    const bool ok = crypto::KeyChain::compute_mac(
                        *secret, data->name().to_uri(), *digest) == sig->mac;
    cache_.store_mac(wire, *secret, ok);
  }
  DAPES_TRACE_EVENT(trace::EventType::kCryptoPrewarm, frame.sender,
                    (digest_cached && mac_cached) ? 1u : 0u,
                    static_cast<uint64_t>(wire.size()));
}

}  // namespace dapes::ndn
