/// @file
/// Delivery prewarm that verifies each Data broadcast once per frame.
///
/// DAPES receivers each verify every Data packet they accept (paper §III:
/// per-packet name/content binding). On a broadcast medium one frame
/// reaches N receivers, so the naive layering hashes and MACs the same
/// bytes N times. This hook plugs into `sim::Medium`'s delivery path
/// (sim::DeliveryPrewarm) and does the cryptographic work once per frame:
/// it takes each delivered Data frame's shared packet (ndn::frame_packet,
/// which decodes the frame once for every receiver unless it carries its
/// sender's packet), hashes its content, checks the MAC against the trust
/// keychain, publishes the digest and verdict into the trial's
/// crypto::VerifyCache (keyed on the shared frame buffer), and emits one
/// `crypto.prewarm` trace event per Data frame with a cached/fresh flag.
///
/// Receivers then serve both the content digest and the MAC verdict from
/// the cache (ndn::Data::verify, core::Metadata::verify_packet). The
/// cache is exact — results with the prewarm on or off are identical;
/// test_verify_cache asserts it trial-for-trial.
#pragma once

#include "crypto/verify_cache.hpp"
#include "ndn/packet.hpp"
#include "sim/medium.hpp"

namespace dapes::ndn {

/// sim::DeliveryPrewarm that pre-verifies Data frames into a
/// crypto::VerifyCache (see the file comment). Non-Data frames
/// (Interests, hellos), unowned payloads and undecodable payloads are
/// skipped untouched; their receivers decode the frame instead.
class DataVerifyPrewarm : public sim::DeliveryPrewarm {
 public:
  /// Prewarm into @p cache, checking MACs against @p trust (the trial's
  /// shared trust keychain). Both must outlive the prewarm.
  DataVerifyPrewarm(crypto::VerifyCache& cache, const crypto::KeyChain& trust)
      : cache_(cache), trust_(trust) {}

  void prewarm(const sim::Frame& frame) override;

 private:
  crypto::VerifyCache& cache_;
  const crypto::KeyChain& trust_;
};

}  // namespace dapes::ndn
