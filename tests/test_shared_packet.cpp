// Oracle suite for the shared decoded packet: every receiver and Content
// Store of a broadcast frame shares one packet object. When the sender's
// packet is exactly the decode of the frame's bytes (a relay's cached or
// forwarded packet, a producer's Data::shared_decode), the frame carries
// that packet and nobody decodes; otherwise the frame's first NDN
// consumer (the verify prewarm for Data, else the first receiving
// WifiFace) decodes it once.
//
// The oracle is the per-receiver decode the stack no longer does: every
// node's receive callback decodes the frame's payload itself and, after
// WifiFace::on_frame has run the whole forwarding pipeline, asserts that
// the frame's shared packet still equals that decode, field by field and
// byte for byte. A layer that mutated the shared packet (say, a relay
// decrementing the frame's Interest instead of its own copy), or a sender
// packet attached although it is not the decode of the bytes, fails here.
//
// The worlds are randomized per seed: nodes scattered over a field with
// Bernoulli loss, every node a pure forwarder (probabilistic relays that
// decrement hop limits, unsolicited caching, CS hits that re-broadcast),
// two signing producers (one puts the packets it builds, the other their
// own decodes), consumers mixing exact and CanBePrefix Interests, zero
// and non-zero Data windows, and the verify prewarm installed on even
// seeds.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "crypto/verify_cache.hpp"
#include "dapes/strategies.hpp"
#include "ndn/face.hpp"
#include "ndn/forwarder.hpp"
#include "ndn/verify_prewarm.hpp"
#include "sim/medium.hpp"
#include "sim/mobility.hpp"
#include "sim/radio.hpp"

namespace dapes::ndn {
namespace {

constexpr size_t kColumns = 4;
constexpr size_t kNodes = 12;             // a 4 x 3 grid
constexpr double kSpacing = 30.0;         // metres between grid points
constexpr size_t kProducers = 2;          // nodes 0 and 1, opposite corners
constexpr size_t kBuildingProducer = 0;   // puts the packets it builds;
                                          // node 1 puts their own decodes
constexpr int kItems = 5;                 // names per producer
constexpr int kInterestsPerConsumer = 12;
constexpr uint8_t kDefaultHopLimit = 32;  // Interest's default

bool same_bytes(const BufferSlice& a, const BufferSlice& b) {
  return common::equal(a.view(), b.view());
}

/// The packet @p fw's CS holds under @p name, read off the name tree so
/// the check leaves LRU order and expiry untouched (nullptr when absent).
const Data* cached(Forwarder& fw, const Name& name) {
  NameTree::Entry* e = fw.name_tree().find_exact(name);
  return e != nullptr && e->cs != nullptr ? e->cs->data.get() : nullptr;
}

/// Shows each Data transmission to @p first_sight before the verify
/// prewarm runs: with it installed, it is every Data frame's first
/// consumer, heard or not.
class SightingPrewarm : public sim::DeliveryPrewarm {
 public:
  SightingPrewarm(DataVerifyPrewarm& inner,
                  std::function<void(const sim::Frame&)> first_sight)
      : inner_(inner), first_sight_(std::move(first_sight)) {}
  void prewarm(const sim::Frame& frame) override {
    if (frame.payload[0] == tlv::kData) first_sight_(frame);
    inner_.prewarm(frame);
  }

 private:
  DataVerifyPrewarm& inner_;
  std::function<void(const sim::Frame&)> first_sight_;
};

struct Node {
  size_t index = 0;  // also the node's medium id
  std::unique_ptr<sim::StationaryMobility> mobility;
  std::unique_ptr<sim::Radio> radio;
  std::unique_ptr<Forwarder> fw;
  std::shared_ptr<WifiFace> wifi;
  std::shared_ptr<AppFace> app;
  core::PureForwarderStrategy* strategy = nullptr;
};

class SharedPacketOracle : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override {
    codec_counters().reset();
    crypto::verify_counters().reset();
  }
  void TearDown() override {
    codec_counters().reset();
    crypto::verify_counters().reset();
  }

  /// A Data frame as its first consumer finds it, before anything on the
  /// receive side touched it: either empty, to be decoded once, or
  /// carrying its sender's own packet.
  void first_sight(const sim::Frame& frame) {
    const size_t sender = frame.sender;
    if (frame.packet == nullptr) {
      // Relays hold only decodes and the decoding producer puts its own,
      // so only the building producer can send a packet that is not the
      // decode of its bytes.
      EXPECT_EQ(sender, kBuildingProducer);
      ++frames_decoded_;
      return;
    }
    // The sender's packet: one it received, or one of its own decodes.
    DataPtr carried = frame_packet<Data>(frame);
    EXPECT_TRUE(carried->is_wire_decode());
    EXPECT_TRUE(held_[sender].contains(carried)) << "from node " << sender;
    ++frames_carried_;
    if (own_decodes_.contains(carried)) ++own_decode_frames_;
  }

  /// Run the whole receive path for one delivered frame, then check the
  /// frame's shared packet against the oracle decode.
  void receive(Node& node, const sim::FramePtr& frame) {
    const uint8_t type = frame->payload[0];
    if (type == tlv::kInterest) {
      interest_frames_.insert(frame);
      node.wifi->on_frame(frame);
      check_interest(*frame);
      return;
    }
    ASSERT_EQ(type, tlv::kData);
    if (data_frames_.insert(frame).second && !with_prewarm_) {
      first_sight(*frame);
    }
    // The payload is immutable, so decoding it before on_frame gives the
    // same oracle as after; the name tells which CS entry to watch.
    std::optional<Data> oracle = Data::decode(frame->payload);
    ++oracle_data_decodes_;
    ASSERT_TRUE(oracle.has_value());
    const Data* before = cached(*node.fw, oracle->name());
    node.wifi->on_frame(frame);

    DataPtr shared = frame_packet<Data>(*frame);
    ASSERT_NE(shared, nullptr);
    EXPECT_EQ(*shared, *oracle);
    EXPECT_TRUE(same_bytes(shared->wire(), oracle->wire()));
    // A CS that took this frame's packet holds the shared object itself,
    // so every CS that cached the frame returns the same pointer. (A
    // refresh keeps the entry's earlier packet, hence the before check.)
    // When the frame carried its sender's packet, that is the sender's
    // object: a relay's re-broadcast leaves its receivers holding the
    // relay's packet.
    const Data* after = cached(*node.fw, oracle->name());
    if (after != before) {
      EXPECT_EQ(after, shared.get());
      ++cs_inserts_;
      if (frame->sender >= kProducers &&
          held_[frame->sender].contains(shared)) {
        ++relay_packets_cached_;
      }
    }
    held_[node.index].insert(std::move(shared));
  }

  void check_interest(const sim::Frame& frame) {
    std::optional<Interest> oracle = Interest::decode(frame.payload);
    ++oracle_interest_decodes_;
    ASSERT_TRUE(oracle.has_value());
    std::shared_ptr<const Interest> shared = frame_packet<Interest>(frame);
    ASSERT_NE(shared, nullptr);
    EXPECT_EQ(*shared, *oracle);
    EXPECT_EQ(shared->hop_limit(), oracle->hop_limit());
    EXPECT_TRUE(same_bytes(shared->wire(), oracle->wire()));
  }

  bool with_prewarm_ = false;
  std::set<sim::FramePtr> interest_frames_;
  std::set<sim::FramePtr> data_frames_;
  /// Every Data packet each node has received or put as its own decode.
  std::vector<std::set<DataPtr>> held_ = std::vector<std::set<DataPtr>>(kNodes);
  /// The decoding producer's own decodes.
  std::set<DataPtr> own_decodes_;
  uint64_t frames_decoded_ = 0;     // Data frames first seen empty
  uint64_t frames_carried_ = 0;     // ... and carrying the sender's packet
  uint64_t own_decode_frames_ = 0;  // ... that is a producer's own decode
  uint64_t relay_packets_cached_ = 0;
  uint64_t oracle_interest_decodes_ = 0;
  uint64_t oracle_data_decodes_ = 0;
  uint64_t cs_inserts_ = 0;
};

TEST_P(SharedPacketOracle, EveryReceiverSeesTheDecodeOfTheWire) {
  const uint64_t seed = GetParam();
  with_prewarm_ = seed % 2 == 0;
  common::Rng rng(seed);
  sim::Scheduler sched;

  sim::Medium::Params params;
  params.range_m = 45.0;
  params.loss_rate = 0.05 * static_cast<double>(seed % 4);
  sim::Medium medium(sched, params, rng.fork());

  crypto::KeyChain trust;
  crypto::VerifyCache cache;
  DataVerifyPrewarm verify_prewarm(cache, trust);
  SightingPrewarm prewarm(verify_prewarm, [this](const sim::Frame& frame) {
    first_sight(frame);
  });
  std::unique_ptr<crypto::VerifyCacheScope> scope;
  if (with_prewarm_) {
    medium.set_prewarm(&prewarm);
    scope = std::make_unique<crypto::VerifyCacheScope>(&cache);
  }

  // A jittered grid: connected, several hops corner to corner.
  std::vector<Node> nodes(kNodes);
  for (size_t i = 0; i < kNodes; ++i) {
    Node& node = nodes[i];
    node.index = i;
    const size_t slot = i == 0 ? 0 : (i == 1 ? kNodes - 1 : i - 1);
    node.mobility = std::make_unique<sim::StationaryMobility>(sim::Vec2{
        kSpacing * static_cast<double>(slot % kColumns) + rng.uniform(-5, 5),
        kSpacing * static_cast<double>(slot / kColumns) + rng.uniform(-5, 5)});
    sim::NodeId id = medium.add_node(
        node.mobility.get(),
        [this, &nodes, i](const sim::FramePtr& frame, sim::NodeId) {
          receive(nodes[i], frame);
        });
    ASSERT_EQ(id, i);
    node.radio = std::make_unique<sim::Radio>(sched, medium, id, rng.fork());
    node.fw = std::make_unique<Forwarder>(sched);
    const common::Duration window =
        rng.chance(0.5)
            ? common::Duration{0}
            : common::Duration::milliseconds(rng.uniform_int(2, 20));
    node.wifi = std::make_shared<WifiFace>(sched, *node.radio, id, rng.fork(),
                                           window);
    node.app = std::make_shared<AppFace>();
    node.fw->add_face(node.wifi);
    node.fw->add_face(node.app);
    auto strategy = std::make_unique<core::PureForwarderStrategy>(
        sched, rng.fork(), rng.uniform(0.5, 1.0));
    node.strategy = strategy.get();
    node.fw->set_strategy(std::move(strategy));
  }

  // Producers answer exact and CanBePrefix Interests under /sp/<p> with
  // signed Data named /sp/<p>/<item>/v0: the building producer puts the
  // packet it built, the decoding producer that packet's own decode.
  uint64_t own_decode_calls = 0;
  for (size_t p = 0; p < kProducers; ++p) {
    Node& producer = nodes[p];
    const Name prefix("/sp/" + std::to_string(p));
    producer.fw->fib().add_route(prefix, producer.app->id());
    crypto::PrivateKey key = trust.generate_key(prefix.to_uri(), seed + p);
    producer.app->set_app_handlers(
        [this, &producer, &own_decode_calls, prefix, key](
            const Interest& interest) {
          if (!prefix.is_prefix_of(interest.name())) return;
          Name name = interest.name();
          if (interest.can_be_prefix()) name = Name(name.to_uri() + "/v0");
          Data data(name);
          data.set_content(common::bytes_of("item " + name.to_uri()));
          data.set_freshness(common::Duration::seconds(5.0));
          data.sign(key);
          if (producer.index == kBuildingProducer) {
            producer.app->put(std::make_shared<const Data>(std::move(data)));
            return;
          }
          DataPtr own = data.shared_decode();
          ++own_decode_calls;
          own_decodes_.insert(own);
          held_[producer.index].insert(own);
          producer.app->put(std::move(own));
        },
        nullptr);
  }

  // Consumers fetch a few shared names at random times, so relays cache
  // overheard Data and later Interests hit their CSs.
  std::vector<std::set<Name>> prefixes_asked(kNodes);
  uint64_t prefix_answers = 0;
  for (size_t c = kProducers; c < kNodes; ++c) {
    Node& consumer = nodes[c];
    const std::set<Name>& asked = prefixes_asked[c];
    consumer.app->set_app_handlers(
        nullptr, [&trust, &asked, &prefix_answers](const Data& data) {
          EXPECT_TRUE(data.verify(trust));
          if (asked.contains(data.name().prefix(data.name().size() - 1))) {
            ++prefix_answers;
          }
        });
    for (int k = 0; k < kInterestsPerConsumer; ++k) {
      const std::string item =
          "/sp/" + std::to_string(rng.next_below(kProducers)) + "/" +
          std::to_string(rng.next_below(kItems));
      const bool can_be_prefix = rng.chance(0.3);
      if (can_be_prefix) prefixes_asked[c].insert(Name(item));
      Interest interest(Name(can_be_prefix ? item : item + "/v0"));
      interest.set_can_be_prefix(can_be_prefix);
      interest.set_nonce(static_cast<uint32_t>(rng.next()));
      interest.set_lifetime(common::Duration::milliseconds(800));
      if (rng.chance(0.3)) {
        interest.set_hop_limit(static_cast<uint8_t>(rng.uniform_int(1, 3)));
      }
      const common::Duration at =
          common::Duration::milliseconds(rng.uniform_int(0, 3000));
      sched.schedule(at, [&consumer, interest] {
        consumer.app->express(interest);
      });
    }
  }

  sched.run_until(common::TimePoint::zero() + common::Duration::seconds(10.0));

  // Every frame's shared packet still equals the decode of its wire now
  // that every relay has run: nothing downstream mutated it, and a
  // relayed Interest frame keeps the hop limit it was sent with.
  uint64_t relayed_frames = 0;
  for (const sim::FramePtr& frame : interest_frames_) {
    check_interest(*frame);
    // Consumers send the default hop limit or 1-3, so 31 is a relay's.
    if (frame_packet<Interest>(*frame)->hop_limit() == kDefaultHopLimit - 1) {
      ++relayed_frames;
    }
  }
  for (const sim::FramePtr& frame : data_frames_) {
    std::optional<Data> oracle = Data::decode(frame->payload);
    ++oracle_data_decodes_;
    ASSERT_TRUE(oracle.has_value());
    EXPECT_EQ(*frame_packet<Data>(*frame), *oracle);
  }

  // One decode per Interest frame a receiver heard. For Data, one decode
  // per own decode the decoding producer made, and one per frame whose
  // first consumer (with the prewarm installed, every Data transmission,
  // heard or not) found it empty: each of those carries an encoding the
  // building producer sent. Frames carrying their sender's packet cost
  // no decode however many hops re-broadcast it.
  const auto& codec = codec_counters();
  EXPECT_EQ(codec.interest_decodes.load(),
            interest_frames_.size() + oracle_interest_decodes_);
  EXPECT_EQ(codec.data_decodes.load(),
            frames_decoded_ + own_decode_calls + oracle_data_decodes_);

  // The world exercised every path the suite is about.
  uint64_t forwards = 0, cs_hits = 0, unsolicited = 0;
  for (size_t i = kProducers; i < kNodes; ++i) {
    forwards += nodes[i].strategy->forwards();
    cs_hits += nodes[i].fw->stats().cs_hits;
    unsolicited += nodes[i].fw->stats().unsolicited_data;
  }
  EXPECT_GT(forwards, 0u);
  EXPECT_GT(relayed_frames, 0u);
  EXPECT_GT(cs_hits, 0u);
  EXPECT_GT(unsolicited, 0u);
  EXPECT_GT(cs_inserts_, 0u);
  EXPECT_GT(prefix_answers, 0u);
  EXPECT_GT(frames_decoded_, 0u);
  EXPECT_GT(frames_carried_, 0u);
  EXPECT_GT(own_decode_frames_, 0u);
  EXPECT_GT(relay_packets_cached_, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SharedPacketOracle,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace dapes::ndn
