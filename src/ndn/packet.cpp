#include "ndn/packet.hpp"

#include <cstring>

#include "crypto/verify_cache.hpp"

namespace dapes::ndn {

namespace {

constexpr uint64_t kSignatureTypeDapesMac = 200;  // private-use value

}  // namespace

CodecCounters& codec_counters() {
  static CodecCounters counters;
  return counters;
}

void append_name(tlv::Writer& w, const Name& name) {
  auto nested = w.begin(tlv::kName);
  for (const auto& c : name.components()) {
    w.tlv(tlv::kGenericNameComponent,
          BytesView(c.value().data(), c.value().size()));
  }
  w.end(nested);
}

Name parse_name(BytesView value) {
  Name name;
  tlv::Reader reader(value);
  while (!reader.at_end()) {
    auto e = reader.read_element();
    if (e.type != tlv::kGenericNameComponent) {
      throw tlv::ParseError("name: unexpected component type");
    }
    name.append(Component(Bytes(e.value.begin(), e.value.end())));
  }
  // Seed the incremental hash cache while the component bytes are hot:
  // every decoded packet arrives at the data plane ready for hash probes.
  name.hash();
  return name;
}

const BufferSlice& Interest::wire() const {
  if (!wire_.empty()) {
    codec_counters().wire_cache_hits.fetch_add(1, std::memory_order_relaxed);
    return wire_;
  }
  codec_counters().interest_encodes.fetch_add(1, std::memory_order_relaxed);
  tlv::Writer w(64 + app_parameters_.size());
  auto packet = w.begin(tlv::kInterest);
  append_name(w, name_);
  if (can_be_prefix_) {
    w.tlv(tlv::kCanBePrefix, {});
  }
  auto nonce = w.begin(tlv::kNonce);
  w.be(nonce_, 4);
  w.end(nonce);
  w.tlv_number(tlv::kInterestLifetime,
               static_cast<uint64_t>(lifetime_.to_milliseconds()));
  auto hop = w.begin(tlv::kHopLimit);
  w.byte(hop_limit_);
  w.end(hop);
  if (!app_parameters_.empty()) {
    w.tlv(tlv::kApplicationParameters, app_parameters_.view());
  }
  w.end(packet);
  wire_ = w.finish();
  return wire_;
}

std::optional<Interest> Interest::decode(BufferSlice wire) {
  codec_counters().interest_decodes.fetch_add(1, std::memory_order_relaxed);
  try {
    tlv::Reader outer(wire);
    auto packet = outer.expect(tlv::kInterest);

    Interest interest;
    tlv::Reader reader(packet.value);
    auto name_el = reader.expect(tlv::kName);
    interest.name_ = parse_name(name_el.value);

    while (!reader.at_end()) {
      auto e = reader.read_element();
      switch (e.type) {
        case tlv::kCanBePrefix:
          interest.can_be_prefix_ = true;
          break;
        case tlv::kNonce:
          if (e.value.size() != 4) return std::nullopt;
          interest.nonce_ =
              static_cast<uint32_t>(common::read_be(e.value, 0, 4));
          break;
        case tlv::kInterestLifetime:
          interest.lifetime_ = Duration::milliseconds(
              static_cast<int64_t>(tlv::parse_number(e.value)));
          break;
        case tlv::kHopLimit:
          if (e.value.size() != 1) return std::nullopt;
          interest.hop_limit_ = e.value[0];
          break;
        case tlv::kApplicationParameters:
          interest.app_parameters_ = e.value;  // zero-copy view
          break;
        default:
          break;  // ignore unknown elements (forward-compatible)
      }
    }
    // Cache exactly the Interest TLV extent (trailing bytes excluded).
    interest.wire_ = wire.subslice(0, outer.offset());
    return interest;
  } catch (const tlv::ParseError&) {
    return std::nullopt;
  }
}

void Data::sign(const crypto::PrivateKey& key) {
  signature_ = key.sign(name_.to_uri(), content_digest());
  invalidate_wire();
}

bool Data::verify(const crypto::KeyChain& keychain) const {
  if (!signature_) return false;
  if (const crypto::VerifyCache* cache = crypto::active_verify_cache()) {
    // The wire buffer is the broadcast's identity: a verdict the delivery
    // prewarm stored for this frame serves every receiver and every
    // repeat verify. Keyed on the signer's secret too, so a keychain that
    // resolves the KeyId differently can never get a foreign verdict.
    if (const crypto::Digest* secret = keychain.secret_for(signature_->signer)) {
      if (!wire_.empty() && wire_.owns_storage()) {
        if (auto verdict =
                cache->lookup_mac(wire_.data(), wire_.size(), *secret)) {
          return *verdict;
        }
      }
    } else {
      return false;  // unknown signer: same answer the slow path gives
    }
  }
  return keychain.verify(name_.to_uri(), content_digest(), *signature_);
}

crypto::Digest Data::content_digest() const {
  if (!content_digest_) {
    content_digest_ = crypto::cached_content_digest(content_.view());
  }
  return *content_digest_;
}

const BufferSlice& Data::wire() const {
  if (!wire_.empty()) {
    codec_counters().wire_cache_hits.fetch_add(1, std::memory_order_relaxed);
    return wire_;
  }
  codec_counters().data_encodes.fetch_add(1, std::memory_order_relaxed);
  tlv::Writer w(96 + content_.size());
  auto packet = w.begin(tlv::kData);
  append_name(w, name_);

  auto meta = w.begin(tlv::kMetaInfo);
  w.tlv_number(tlv::kFreshnessPeriod,
               static_cast<uint64_t>(freshness_.to_milliseconds()));
  w.end(meta);

  w.tlv(tlv::kContent, content_.view());

  if (signature_) {
    auto sig_info = w.begin(tlv::kSignatureInfo);
    w.tlv_number(tlv::kSignatureType, kSignatureTypeDapesMac);
    w.tlv(tlv::kKeyLocator, signature_->signer.id.view());
    w.end(sig_info);
    w.tlv(tlv::kSignatureValue, signature_->mac.view());
  }
  w.end(packet);
  wire_ = w.finish();
  return wire_;
}

std::optional<Data> Data::decode(BufferSlice wire) {
  codec_counters().data_decodes.fetch_add(1, std::memory_order_relaxed);
  try {
    tlv::Reader outer(wire);
    auto packet = outer.expect(tlv::kData);

    Data data;
    tlv::Reader reader(packet.value);
    auto name_el = reader.expect(tlv::kName);
    data.name_ = parse_name(name_el.value);

    std::optional<crypto::KeyId> signer;
    std::optional<crypto::Digest> mac;

    while (!reader.at_end()) {
      auto e = reader.read_element();
      switch (e.type) {
        case tlv::kMetaInfo: {
          tlv::Reader meta(e.value);
          while (!meta.at_end()) {
            auto m = meta.read_element();
            if (m.type == tlv::kFreshnessPeriod) {
              data.freshness_ = Duration::milliseconds(
                  static_cast<int64_t>(tlv::parse_number(m.value)));
            }
          }
          break;
        }
        case tlv::kContent:
          data.content_ = e.value;  // zero-copy view into the frame
          break;
        case tlv::kSignatureInfo: {
          tlv::Reader info(e.value);
          while (!info.at_end()) {
            auto m = info.read_element();
            if (m.type == tlv::kKeyLocator) {
              if (m.value.size() != 32) return std::nullopt;
              crypto::KeyId id;
              std::memcpy(id.id.bytes.data(), m.value.data(), 32);
              signer = id;
            }
          }
          break;
        }
        case tlv::kSignatureValue: {
          if (e.value.size() != 32) return std::nullopt;
          crypto::Digest d;
          std::memcpy(d.bytes.data(), e.value.data(), 32);
          mac = d;
          break;
        }
        default:
          break;
      }
    }

    if (signer && mac) {
      data.signature_ = crypto::Signature{*signer, *mac};
    }
    data.wire_ = wire.subslice(0, outer.offset());
    return data;
  } catch (const tlv::ParseError&) {
    return std::nullopt;
  }
}

}  // namespace dapes::ndn
