// Zero-copy invariants of the wire layer, asserted end-to-end through the
// engine via the codec counters (ISSUE 2 acceptance criteria):
//   * one broadcast frame is serialized exactly once, no matter how many
//     nodes overhear it;
//   * one broadcast frame is decoded at most once, no matter how many
//     nodes receive it, and every receiver gets that same packet object;
//     not at all when the sender's packet is exactly the decode of the
//     frame's bytes, since the frame then carries that packet;
//   * forwarding an unmodified Data performs zero re-serialization — the
//     cached wire (and the underlying frame buffer) is reused;
//   * the Content Store shares the decoded packet instead of deep-copying.
// test_shared_packet checks the shared packet against a per-receiver
// decode over randomized multi-hop worlds.
#include <gtest/gtest.h>

#include "ndn/face.hpp"
#include "ndn/forwarder.hpp"
#include "sim/medium.hpp"
#include "sim/mobility.hpp"

namespace dapes::ndn {
namespace {

using common::bytes_of;

struct ZeroCopyTest : ::testing::Test {
  sim::Scheduler sched;
  sim::StationaryMobility pos_a{{0, 0}};
  sim::StationaryMobility pos_b{{10, 0}};
  sim::StationaryMobility pos_c{{20, 0}};
  common::Rng rng{99};

  void SetUp() override { codec_counters().reset(); }
  void TearDown() override { codec_counters().reset(); }

  sim::Medium::Params params() {
    sim::Medium::Params p;
    p.range_m = 100;
    p.loss_rate = 0.0;
    return p;
  }

  std::vector<std::shared_ptr<sim::Radio>> radios;
  std::vector<std::shared_ptr<WifiFace>> receivers;
  std::vector<DataPtr> received;

  Data make_data(const std::string& uri) {
    Data d{Name(uri)};
    d.set_content(bytes_of("zero-copy-payload"));
    d.set_freshness(common::Duration::seconds(100.0));
    return d;
  }

  /// Two overhearing nodes at B and C, each with its own WifiFace; every
  /// Data they receive lands in `received`.
  void add_receivers(sim::Medium& medium) {
    for (auto* pos : {&pos_b, &pos_c}) {
      auto idx = receivers.size();
      sim::NodeId node = medium.add_node(
          pos, [this, idx](const sim::FramePtr& frame, sim::NodeId) {
            receivers[idx]->on_frame(frame);
          });
      auto radio =
          std::make_shared<sim::Radio>(sched, medium, node, rng.fork());
      auto face = std::make_shared<WifiFace>(sched, *radio, node, rng.fork(),
                                             common::Duration{0});
      face->set_receive_handlers(
          nullptr, [this](DataPtr d) { received.push_back(std::move(d)); });
      radios.push_back(std::move(radio));
      receivers.push_back(std::move(face));
    }
  }
};

TEST_F(ZeroCopyTest, BroadcastEncodedOnceDecodedOncePerFrame) {
  sim::Medium medium(sched, params(), rng.fork());
  sim::NodeId a = medium.add_node(&pos_a, nullptr);
  add_receivers(medium);

  sim::Radio radio_a(sched, medium, a, rng.fork());
  WifiFace sender(sched, radio_a, a, rng.fork(), common::Duration{0});
  auto sent = std::make_shared<const Data>(make_data("/zc/frame/0"));
  const uint8_t* sent_wire = sent->wire().data();
  sender.send_data(sent);
  sched.run();

  ASSERT_EQ(received.size(), 2u);
  auto& c = codec_counters();
  // One serialization for the broadcast, regardless of receiver count.
  EXPECT_EQ(c.data_encodes.load(), 1u);
  // One decode for the frame, however many nodes receive it...
  EXPECT_EQ(c.data_decodes.load(), 1u);
  // ...and both receivers' handlers got that one packet object.
  EXPECT_EQ(received[0], received[1]);

  // The shared packet is a view into the transmitted buffer, but a
  // decoded object, not the sender's.
  EXPECT_EQ(received[0]->wire().data(), sent_wire);
  EXPECT_NE(received[0], sent);
}

TEST_F(ZeroCopyTest, FrameCarriesSenderPacketOnlyWhenItIsTheDecode) {
  sim::Medium medium(sched, params(), rng.fork());
  sim::NodeId a = medium.add_node(&pos_a, nullptr);
  add_receivers(medium);
  sim::Radio radio_a(sched, medium, a, rng.fork());
  // A nonzero window: the delayed send path attaches by the same rule.
  WifiFace sender(sched, radio_a, a, rng.fork(),
                  common::Duration::milliseconds(5));

  // The wire carries whole milliseconds, so a built 1.5 ms freshness is
  // not what the bytes say: receivers decode and see 1 ms.
  Data built = make_data("/zc/fresh/0");
  built.set_freshness(common::Duration::microseconds(1500));
  auto sent = std::make_shared<const Data>(built);
  sender.send_data(sent);
  sched.run();
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(codec_counters().data_decodes.load(), 1u);
  EXPECT_EQ(received[0], received[1]);
  EXPECT_NE(received[0], sent);
  EXPECT_EQ(received[0]->freshness().us, 1000);
  EXPECT_EQ(received[1]->freshness().us, 1000);

  // The packet's own decode is what the bytes say: the frame carries it,
  // and both receivers hold the sender's object without a decode.
  DataPtr own = built.shared_decode();
  received.clear();
  codec_counters().reset();
  sender.send_data(own);
  sched.run();
  ASSERT_EQ(received.size(), 2u);
  EXPECT_EQ(codec_counters().data_decodes.load(), 0u);
  EXPECT_EQ(codec_counters().data_encodes.load(), 0u);
  EXPECT_EQ(received[0], own);
  EXPECT_EQ(received[1], own);
  EXPECT_EQ(own->freshness().us, 1000);
}

TEST_F(ZeroCopyTest, ForwardingUnmodifiedDataNeverReserializes) {
  sim::Medium medium(sched, params(), rng.fork());

  // Node A: application + forwarder. Node B: responder face.
  Forwarder fw(sched);
  sim::NodeId a = medium.add_node(&pos_a, nullptr);
  sim::Radio radio_a(sched, medium, a, rng.fork());
  auto wifi = std::make_shared<WifiFace>(sched, radio_a, a, rng.fork(),
                                         common::Duration{0});
  auto app = std::make_shared<AppFace>();
  std::vector<Data> app_received;
  app->set_app_handlers(nullptr,
                        [&](const Data& d) { app_received.push_back(d); });
  fw.add_face(wifi);
  fw.add_face(app);

  // Express an Interest so the returning Data has a PIT entry.
  Interest interest(Name("/zc/fwd/0"));
  interest.set_nonce(7);
  app->express(interest);

  // The Data arrives from the network as a decoded frame.
  Data origin = make_data("/zc/fwd/0");
  common::BufferSlice frame_wire = origin.wire();
  codec_counters().reset();

  wifi->on_frame([&] {
    auto frame = std::make_shared<sim::Frame>();
    frame->sender = 1;
    frame->payload = frame_wire;
    frame->kind = "ndn-data";
    return frame;
  }());
  sched.run();

  // The forwarder delivered it to the app face and cached it in the CS.
  ASSERT_EQ(app_received.size(), 1u);
  EXPECT_TRUE(fw.cs().contains(Name("/zc/fwd/0")));

  auto& c = codec_counters();
  // Exactly one decode (the frame), zero re-encodes anywhere in the
  // pipeline: PIT satisfaction, CS insert, and app delivery all share
  // the decoded packet's cached wire.
  EXPECT_EQ(c.data_decodes.load(), 1u);
  EXPECT_EQ(c.data_encodes.load(), 0u);

  // The delivered Data still carries the original frame buffer.
  ASSERT_TRUE(app_received[0].has_wire());
  EXPECT_EQ(app_received[0].wire().data(), frame_wire.data());

  // Re-broadcasting the unmodified packet reuses the cache too.
  wifi->send_data(std::make_shared<const Data>(app_received[0]));
  sched.run();
  EXPECT_EQ(c.data_encodes.load(), 0u);
  EXPECT_GT(c.wire_cache_hits.load(), 0u);
}

TEST_F(ZeroCopyTest, ContentStoreServesSharedPacket) {
  sim::Scheduler local_sched;
  Forwarder fw(local_sched);
  auto app = std::make_shared<AppFace>();
  std::vector<Data> served;
  app->set_app_handlers(nullptr, [&](const Data& d) { served.push_back(d); });
  fw.add_face(app);

  Data origin = make_data("/zc/cs/0");
  common::BufferSlice wire = origin.wire();
  auto decoded = Data::decode(wire);
  ASSERT_TRUE(decoded.has_value());
  fw.cs().insert(*decoded, local_sched.now());
  codec_counters().reset();

  // A CS hit answers the Interest with the shared packet: no encode, no
  // decode, and the served Data still points at the original buffer.
  Interest interest(Name("/zc/cs/0"));
  interest.set_nonce(11);
  app->express(interest);
  ASSERT_EQ(served.size(), 1u);
  EXPECT_EQ(fw.stats().cs_hits, 1u);
  auto& c = codec_counters();
  EXPECT_EQ(c.data_encodes.load(), 0u);
  EXPECT_EQ(c.data_decodes.load(), 0u);
  ASSERT_TRUE(served[0].has_wire());
  EXPECT_EQ(served[0].wire().data(), wire.data());
}

TEST_F(ZeroCopyTest, MutationInvalidatesWireCache) {
  Data data = make_data("/zc/mut/0");
  common::BufferSlice before = data.wire();
  codec_counters().reset();

  // Unmodified: cache hit, same storage.
  EXPECT_EQ(data.wire().data(), before.data());
  EXPECT_EQ(codec_counters().data_encodes.load(), 0u);

  data.set_content(bytes_of("different"));
  common::BufferSlice after = data.wire();
  EXPECT_EQ(codec_counters().data_encodes.load(), 1u);
  EXPECT_NE(after.data(), before.data());

  // Hop-limit mutation invalidates Interests the same way.
  Interest interest(Name("/zc/mut/i"));
  common::BufferSlice iw = interest.wire();
  interest.set_hop_limit(interest.hop_limit() - 1);
  EXPECT_NE(interest.wire().data(), iw.data());
}

}  // namespace
}  // namespace dapes::ndn
