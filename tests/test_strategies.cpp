// Unit tests for the multi-hop forwarding strategies (paper §V): pure
// forwarders (probabilistic relay + suppression) and DAPES intermediates
// (knowledge-driven forward/suppress).
#include <gtest/gtest.h>

#include "dapes/strategies.hpp"
#include "sim/scheduler.hpp"

namespace dapes::core {
namespace {

using common::bytes_of;
using ndn::Data;
using ndn::Interest;

class LoopbackFace : public ndn::Face {
 public:
  explicit LoopbackFace(bool local) : local_(local) {}
  void send_interest(const Interest& i) override { sent_interests.push_back(i); }
  void send_data(ndn::DataPtr d) override { sent_data.push_back(*d); }
  bool is_local() const override { return local_; }
  void inject(const Interest& i) { deliver_interest(i); }
  void inject(const Data& d) { deliver_data(std::make_shared<const Data>(d)); }
  std::vector<Interest> sent_interests;
  std::vector<Data> sent_data;

 private:
  bool local_;
};

Interest make_interest(const std::string& uri, uint32_t nonce) {
  Interest i{ndn::Name(uri)};
  i.set_nonce(nonce);
  i.set_lifetime(common::Duration::milliseconds(300));
  return i;
}

struct StrategyTest : ::testing::Test {
  sim::Scheduler sched;
  ndn::Forwarder fw{sched};
  std::shared_ptr<LoopbackFace> wifi = std::make_shared<LoopbackFace>(false);
  std::shared_ptr<LoopbackFace> app = std::make_shared<LoopbackFace>(true);

  void SetUp() override {
    fw.add_face(wifi);
    fw.add_face(app);
  }

  PureForwarderStrategy* use_pure(double probability) {
    auto s = std::make_unique<PureForwarderStrategy>(sched, common::Rng(1),
                                                     probability);
    auto* raw = s.get();
    fw.set_strategy(std::move(s));
    return raw;
  }

  DapesIntermediateStrategy* use_intermediate(double probability) {
    auto s = std::make_unique<DapesIntermediateStrategy>(
        sched, common::Rng(1), probability);
    auto* raw = s.get();
    fw.set_strategy(std::move(s));
    return raw;
  }

  /// Run past the longest relay delay.
  void run_past_relay_delay() {
    sched.run_until(common::TimePoint{} +
                    PureForwarderStrategy::kForwardDelayWindow);
  }

  BitmapMessage bitmap_msg(const std::string& peer,
                           std::initializer_list<size_t> held) {
    BitmapMessage msg;
    msg.peer_id = peer;
    msg.collection = ndn::Name("/coll");
    msg.layout = {{"file", 10}};
    msg.bitmap = Bitmap(10);
    for (size_t i : held) msg.bitmap.set(i);
    return msg;
  }

  Interest bitmap_interest(const BitmapMessage& msg, uint32_t nonce) {
    Interest i{bitmap_data_name(msg.collection, msg.peer_id, msg.round)};
    i.set_nonce(nonce);
    i.set_app_parameters(msg.encode());
    return i;
  }
};

TEST_F(StrategyTest, PureForwarderRelaysWithProbabilityOne) {
  use_pure(1.0);
  wifi->inject(make_interest("/coll/file/1", 1));
  run_past_relay_delay();
  ASSERT_EQ(wifi->sent_interests.size(), 1u);
  EXPECT_EQ(wifi->sent_interests[0].name().to_uri(), "/coll/file/1");
}

TEST_F(StrategyTest, PureForwarderNeverRelaysAtZero) {
  use_pure(0.0);
  wifi->inject(make_interest("/coll/file/1", 1));
  run_past_relay_delay();
  EXPECT_TRUE(wifi->sent_interests.empty());
}

TEST_F(StrategyTest, RelayWaitsForRandomDelay) {
  use_pure(1.0);
  wifi->inject(make_interest("/coll/file/1", 1));
  // Relay is scheduled, not synchronous.
  EXPECT_TRUE(wifi->sent_interests.empty());
  run_past_relay_delay();
  EXPECT_EQ(wifi->sent_interests.size(), 1u);
}

TEST_F(StrategyTest, RelaySuppressedIfDataArrivesFirst) {
  use_pure(1.0);
  wifi->inject(make_interest("/coll/file/1", 1));
  // Data satisfies the PIT before the relay timer fires.
  Data d{ndn::Name("/coll/file/1")};
  d.set_content(bytes_of("x"));
  wifi->inject(d);
  run_past_relay_delay();
  EXPECT_TRUE(wifi->sent_interests.empty());
}

TEST_F(StrategyTest, SuppressionTimerAfterFruitlessForward) {
  use_pure(1.0);
  wifi->inject(make_interest("/dead/end", 1));
  // Let the relay fire and the PIT expire without data.
  sched.run_until(common::TimePoint{1000000});
  auto* strategy = static_cast<PureForwarderStrategy*>(&fw.strategy());
  EXPECT_EQ(strategy->relay_timeouts(), 1u);
  // Same name again: suppressed, not relayed.
  size_t sent_before = wifi->sent_interests.size();
  wifi->inject(make_interest("/dead/end", 2));
  sched.run_until(common::TimePoint{1500000});
  EXPECT_EQ(wifi->sent_interests.size(), sent_before);
  EXPECT_GT(strategy->suppressions(), 0u);
}

TEST_F(StrategyTest, PureForwarderCachesOverheardData) {
  use_pure(0.2);
  Data d{ndn::Name("/overheard/data")};
  d.set_content(bytes_of("x"));
  d.set_freshness(common::Duration::seconds(100.0));
  wifi->inject(d);
  EXPECT_TRUE(fw.cs().contains(ndn::Name("/overheard/data")));
}

TEST_F(StrategyTest, LocalInterestAlwaysGoesToAir) {
  use_pure(0.0);  // even at zero probability
  app->inject(make_interest("/anything", 1));
  EXPECT_EQ(wifi->sent_interests.size(), 1u);
}

TEST_F(StrategyTest, NetworkInterestDeliveredToLocalApp) {
  use_pure(0.0);
  fw.fib().add_route(ndn::Name("/svc"), app->id());
  wifi->inject(make_interest("/svc/req", 1));
  ASSERT_EQ(app->sent_interests.size(), 1u);
  EXPECT_EQ(app->sent_interests[0].name().to_uri(), "/svc/req");
}

TEST_F(StrategyTest, IntermediateLearnsFromBitmapAnnouncement) {
  auto* s = use_intermediate(0.0);
  wifi->inject(bitmap_interest(bitmap_msg("B", {3, 4}), 1));
  EXPECT_EQ(s->packet_availability(ndn::Name("/coll/file/3"), sched.now()),
            DapesIntermediateStrategy::Availability::kAvailable);
  EXPECT_EQ(s->packet_availability(ndn::Name("/coll/file/7"), sched.now()),
            DapesIntermediateStrategy::Availability::kKnownMissing);
  EXPECT_EQ(s->packet_availability(ndn::Name("/other/file/0"), sched.now()),
            DapesIntermediateStrategy::Availability::kUnknown);
  EXPECT_TRUE(s->collection_active(ndn::Name("/coll"), sched.now()));
  EXPECT_GT(s->knowledge_bytes(), 0u);
}

TEST_F(StrategyTest, IntermediateForwardsKnownAvailable) {
  auto* s = use_intermediate(0.0);  // prob 0: only knowledge can forward
  wifi->inject(bitmap_interest(bitmap_msg("B", {5}), 1));
  wifi->inject(make_interest("/coll/file/5", 2));
  sched.run_until(common::TimePoint{100000});
  // The bitmap announcement itself may be relayed via the control path
  // (collection_active), so look for the data interest specifically.
  bool relayed_data = false;
  for (const auto& i : wifi->sent_interests) {
    if (i.name().to_uri() == "/coll/file/5") relayed_data = true;
  }
  EXPECT_TRUE(relayed_data);
  EXPECT_EQ(s->knowledge_forwards(), 1u);
}

TEST_F(StrategyTest, IntermediateSuppressesKnownMissing) {
  auto* s = use_intermediate(1.0);  // even at prob 1: knowledge wins
  wifi->inject(bitmap_interest(bitmap_msg("B", {5}), 1));
  wifi->inject(make_interest("/coll/file/7", 2));
  sched.run_until(common::TimePoint{100000});
  for (const auto& i : wifi->sent_interests) {
    EXPECT_NE(i.name().to_uri(), "/coll/file/7");
  }
  EXPECT_EQ(s->knowledge_suppressions(), 1u);
}

TEST_F(StrategyTest, IntermediateKnowledgeExpires) {
  auto* s = use_intermediate(0.2);
  wifi->inject(bitmap_interest(bitmap_msg("B", {5}), 1));
  const ndn::Name packet("/coll/file/5");
  // Fresh through the TTL boundary, forgotten just past it.
  sched.run_until(common::TimePoint{} +
                  DapesIntermediateStrategy::kKnowledgeTtl);
  EXPECT_EQ(s->packet_availability(packet, sched.now()),
            DapesIntermediateStrategy::Availability::kAvailable);
  sched.run_until(sched.now() + common::Duration::microseconds(1));
  EXPECT_EQ(s->packet_availability(packet, sched.now()),
            DapesIntermediateStrategy::Availability::kUnknown);
}

TEST_F(StrategyTest, IntermediateRecentDataImpliesAvailability) {
  auto* s = use_intermediate(0.0);
  Data d{ndn::Name("/coll/file/9")};
  d.set_content(bytes_of("x"));
  wifi->inject(d);
  EXPECT_EQ(s->packet_availability(ndn::Name("/coll/file/9"), sched.now()),
            DapesIntermediateStrategy::Availability::kAvailable);
}

TEST_F(StrategyTest, IntermediateFallsBackToProbabilisticWhenUnknown) {
  use_intermediate(1.0);
  wifi->inject(make_interest("/mystery/file/0", 1));
  sched.run_until(common::TimePoint{100000});
  bool relayed = false;
  for (const auto& i : wifi->sent_interests) {
    if (i.name().to_uri() == "/mystery/file/0") relayed = true;
  }
  EXPECT_TRUE(relayed);
}

// --------------------------------------------- soft-state expiry sweeps

TEST_F(StrategyTest, RelayBookkeepingSweptAfterHorizon) {
  auto* strategy = use_pure(1.0);

  // Every relay is satisfied by returning data, so on_interest_timeout
  // never fires and nothing would ever shrink the table without the
  // horizon sweep. 20 ms apart, the cap is passed well after the
  // horizon, so the first sweep finds stale entries to drop.
  const uint32_t relays =
      static_cast<uint32_t>(PureForwarderStrategy::kNameStateCap) + 100;
  for (uint32_t i = 0; i < relays; ++i) {
    common::TimePoint at{static_cast<int64_t>(i) * 20'000};
    sched.schedule_at(at, [this, i] {
      std::string uri = "/swarm/file/" + std::to_string(i);
      wifi->inject(make_interest(uri, i + 1));
    });
    sched.schedule_at(at + common::Duration::milliseconds(100), [this, i] {
      Data d{ndn::Name("/swarm/file/" + std::to_string(i))};
      d.set_content(bytes_of("x"));
      wifi->inject(d);
    });
  }
  ASSERT_GT(static_cast<int64_t>(relays) * 20'000,
            PureForwarderStrategy::kRelayHorizon.us);
  sched.run();
  EXPECT_EQ(strategy->relay_timeouts(), 0u);
  EXPECT_EQ(strategy->forwards(), relays);
  // Entries older than the horizon are swept whenever the table exceeds
  // the cap.
  EXPECT_LE(strategy->relayed_names(),
            PureForwarderStrategy::kNameStateCap + 1);
}

TEST_F(StrategyTest, SuppressionTableSweptAfterExpiry) {
  auto* strategy = use_pure(1.0);

  // Fruitless forwards 2.5 s apart: each PIT timeout (300 ms lifetime)
  // adds a suppression entry that expires 2 s later, before the next
  // insert — past the cap, the sweep keeps the table at the cap.
  const uint32_t forwards =
      static_cast<uint32_t>(PureForwarderStrategy::kNameStateCap) + 100;
  for (uint32_t i = 0; i < forwards; ++i) {
    sched.schedule_at(common::TimePoint{static_cast<int64_t>(i) * 2'500'000},
                      [this, i] {
                        std::string uri = "/dead/" + std::to_string(i);
                        wifi->inject(make_interest(uri, i + 1));
                      });
  }
  sched.run();
  EXPECT_EQ(strategy->relay_timeouts(), forwards);
  EXPECT_LE(strategy->suppressed_names(),
            PureForwarderStrategy::kNameStateCap + 1);
}

TEST_F(StrategyTest, RecentDataSweptAfterKnowledgeTtl) {
  auto* strategy = use_intermediate(0.0);

  // Distinct overheard data names, each stale (past the knowledge TTL)
  // long before the last arrives: once the cap trips, the sweep holds
  // the table at cap size.
  const uint32_t heard =
      static_cast<uint32_t>(DapesIntermediateStrategy::kRecentDataCap) + 100;
  for (uint32_t i = 0; i < heard; ++i) {
    sched.schedule_at(common::TimePoint{static_cast<int64_t>(i) * 500'000},
                      [this, i] {
                        Data d{ndn::Name("/heard/" + std::to_string(i))};
                        d.set_content(bytes_of("x"));
                        wifi->inject(d);
                      });
  }
  sched.run();
  EXPECT_LE(strategy->recent_data_names(),
            DapesIntermediateStrategy::kRecentDataCap + 1);
}

}  // namespace
}  // namespace dapes::core
