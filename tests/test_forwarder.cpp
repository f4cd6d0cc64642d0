// Unit tests for the NFD-lite forwarding pipeline (paper Fig. 1):
// CS hit -> PIT aggregation -> strategy forwarding; data return paths;
// unsolicited data handling; hop limits and loop suppression.
#include <gtest/gtest.h>

#include "ndn/forwarder.hpp"
#include "sim/scheduler.hpp"
#include "trace/trace.hpp"

namespace dapes::ndn {
namespace {

using common::bytes_of;

/// A face that records what the forwarder pushes into it and exposes
/// inject helpers (stands in for both app and network endpoints).
class MockFace : public Face {
 public:
  explicit MockFace(bool local) : local_(local) {}

  void send_interest(const Interest& interest) override {
    sent_interests.push_back(interest);
  }
  void send_data(const Data& data) override { sent_data.push_back(data); }
  bool is_local() const override { return local_; }

  void inject(const Interest& interest) { deliver_interest(interest); }
  void inject(const Data& data) { deliver_data(data); }

  std::vector<Interest> sent_interests;
  std::vector<Data> sent_data;

 private:
  bool local_;
};

/// Strategy stub: floods to every other face, records calls.
class RecordingStrategy : public ForwardingStrategy {
 public:
  void after_receive_interest(Forwarder& fw, FaceId in_face,
                              const Interest& interest,
                              PitEntry& /*entry*/) override {
    ++interests_handled;
    for (const auto& face : fw.faces()) {
      if (face->id() != in_face) fw.send_interest_to(face->id(), interest);
    }
  }
  void on_interest_timeout(Forwarder&, const Name&) override { ++timeouts; }
  bool cache_unsolicited(Forwarder&, FaceId, const Data&) override {
    ++unsolicited;
    return cache_unsolicited_flag;
  }
  void on_overhear_interest(Forwarder&, FaceId, const Interest&) override {
    ++overheard_interests;
  }
  void on_overhear_data(Forwarder&, FaceId, const Data&) override {
    ++overheard_data;
  }

  int interests_handled = 0;
  int timeouts = 0;
  int unsolicited = 0;
  int overheard_interests = 0;
  int overheard_data = 0;
  bool cache_unsolicited_flag = false;
};

struct ForwarderTest : ::testing::Test {
  sim::Scheduler sched;
  Forwarder fw{sched};
  std::shared_ptr<MockFace> wifi = std::make_shared<MockFace>(false);
  std::shared_ptr<MockFace> app = std::make_shared<MockFace>(true);
  RecordingStrategy* strategy = nullptr;

  void SetUp() override {
    fw.add_face(wifi);
    fw.add_face(app);
    auto s = std::make_unique<RecordingStrategy>();
    strategy = s.get();
    fw.set_strategy(std::move(s));
  }

  Interest interest(const std::string& uri, uint32_t nonce = 1) {
    Interest i{Name(uri)};
    i.set_nonce(nonce);
    i.set_lifetime(common::Duration::milliseconds(500));
    return i;
  }

  Data data(const std::string& uri) {
    Data d{Name(uri)};
    d.set_content(bytes_of("payload"));
    d.set_freshness(common::Duration::seconds(100.0));
    return d;
  }
};

TEST_F(ForwarderTest, InterestReachesStrategyAndForwards) {
  app->inject(interest("/a/1"));
  EXPECT_EQ(strategy->interests_handled, 1);
  ASSERT_EQ(wifi->sent_interests.size(), 1u);
  EXPECT_EQ(wifi->sent_interests[0].name().to_uri(), "/a/1");
}

TEST_F(ForwarderTest, CsHitAnswersWithoutStrategy) {
  // Prime the CS via a satisfied exchange.
  app->inject(interest("/a/1", 1));
  wifi->inject(data("/a/1"));
  ASSERT_EQ(app->sent_data.size(), 1u);

  // Second interest (different nonce) hits the CS.
  app->inject(interest("/a/1", 2));
  EXPECT_EQ(strategy->interests_handled, 1);  // not called again
  EXPECT_EQ(app->sent_data.size(), 2u);
  EXPECT_EQ(fw.stats().cs_hits, 1u);
}

TEST_F(ForwarderTest, PitAggregatesSameName) {
  wifi->inject(interest("/agg/1", 10));
  app->inject(interest("/agg/1", 11));
  EXPECT_EQ(strategy->interests_handled, 1);
  EXPECT_EQ(fw.stats().pit_aggregated, 1u);
  // Data satisfies both in-faces.
  wifi->inject(data("/agg/1"));
  EXPECT_EQ(app->sent_data.size(), 1u);
  // The wifi face was the data's in-face, so it is not echoed back.
  EXPECT_TRUE(wifi->sent_data.empty());
}

TEST_F(ForwarderTest, DuplicateNonceDropped) {
  wifi->inject(interest("/loop/1", 42));
  wifi->inject(interest("/loop/1", 42));
  EXPECT_EQ(fw.stats().loops_dropped, 1u);
  EXPECT_EQ(strategy->interests_handled, 1);
}

TEST_F(ForwarderTest, DeadNonceStopsLateLoops) {
  wifi->inject(interest("/dead/1", 7));
  wifi->inject(data("/dead/1"));  // satisfies + records dead nonce
  wifi->inject(interest("/dead/1", 7));
  EXPECT_EQ(fw.stats().loops_dropped, 1u);
}

TEST_F(ForwarderTest, UnsolicitedDataHitsStrategyHook) {
  wifi->inject(data("/nobody/asked"));
  EXPECT_EQ(strategy->unsolicited, 1);
  EXPECT_EQ(fw.stats().unsolicited_data, 1u);
  EXPECT_FALSE(fw.cs().contains(Name("/nobody/asked")));
}

TEST_F(ForwarderTest, UnsolicitedDataCachedWhenStrategySaysSo) {
  strategy->cache_unsolicited_flag = true;
  wifi->inject(data("/pure/forwarder/cache"));
  EXPECT_TRUE(fw.cs().contains(Name("/pure/forwarder/cache")));
}

TEST_F(ForwarderTest, TracedRefreshWritesSecondCsInsert) {
  // The forwarder caches through ContentStore::insert(const Data&); a
  // second copy of the same Data refreshes the entry and is traced too.
  trace::TraceConfig config;
  config.sink = "ring";
  trace::Tracer tracer(config, [] { return int64_t{0}; });
  trace::TrialScope scope(&tracer);
  strategy->cache_unsolicited_flag = true;
  wifi->inject(data("/pure/forwarder/again"));
  wifi->inject(data("/pure/forwarder/again"));

  std::vector<trace::Record> inserts;
  for (const trace::Record& r : tracer.snapshot().records) {
    if (r.type == static_cast<uint16_t>(trace::EventType::kCsInsert)) {
      inserts.push_back(r);
    }
  }
  ASSERT_EQ(inserts.size(), 2u);
  EXPECT_EQ(inserts[0].name_hash, Name("/pure/forwarder/again").hash());
  EXPECT_EQ(inserts[0].args[0], 7u);  // content bytes of "payload"
  EXPECT_EQ(inserts[0].args[1], 0u);  // new entry
  EXPECT_EQ(inserts[1].name_hash, inserts[0].name_hash);
  EXPECT_EQ(inserts[1].args[0], 7u);
  EXPECT_EQ(inserts[1].args[1], 1u);  // refreshed
  EXPECT_EQ(fw.cs().size(), 1u);
}

TEST_F(ForwarderTest, OverhearHooksFireOnlyForNetworkFaces) {
  wifi->inject(interest("/o/1", 1));
  app->inject(interest("/o/2", 2));
  EXPECT_EQ(strategy->overheard_interests, 1);
  wifi->inject(data("/o/1"));
  EXPECT_EQ(strategy->overheard_data, 1);
}

TEST_F(ForwarderTest, HopLimitExhaustedInterestDropped) {
  Interest i = interest("/hops/1");
  i.set_hop_limit(0);
  wifi->inject(i);
  EXPECT_EQ(fw.stats().hop_limit_drops, 1u);
  EXPECT_EQ(strategy->interests_handled, 0);
}

TEST_F(ForwarderTest, HopLimitDecrementsFromNetworkOnly) {
  Interest i = interest("/hops/2");
  i.set_hop_limit(5);
  wifi->inject(i);
  ASSERT_FALSE(app->sent_interests.empty());
  EXPECT_EQ(app->sent_interests[0].hop_limit(), 4);

  Interest j = interest("/hops/3");
  j.set_hop_limit(5);
  app->inject(j);
  ASSERT_FALSE(wifi->sent_interests.empty());
  EXPECT_EQ(wifi->sent_interests.back().hop_limit(), 5);  // local: no decrement
}

TEST_F(ForwarderTest, PitExpiryFiresStrategyTimeout) {
  wifi->inject(interest("/exp/1"));
  sched.run_until(common::TimePoint{2000000});
  EXPECT_EQ(strategy->timeouts, 1);
  EXPECT_EQ(fw.stats().pit_timeouts, 1u);
  EXPECT_EQ(fw.pit().size(), 0u);
}

TEST_F(ForwarderTest, DataCancelsPitExpiry) {
  wifi->inject(interest("/sat/1"));
  wifi->inject(data("/sat/1"));
  sched.run_until(common::TimePoint{2000000});
  EXPECT_EQ(strategy->timeouts, 0);
}

TEST_F(ForwarderTest, CanBePrefixSatisfiedByLongerName) {
  Interest i = interest("/pre");
  i.set_can_be_prefix(true);
  app->inject(i);
  wifi->inject(data("/pre/long/name"));
  ASSERT_EQ(app->sent_data.size(), 1u);
  EXPECT_EQ(app->sent_data[0].name().to_uri(), "/pre/long/name");
}

TEST_F(ForwarderTest, SolicitedDataIsCached) {
  app->inject(interest("/cache/1"));
  wifi->inject(data("/cache/1"));
  EXPECT_TRUE(fw.cs().contains(Name("/cache/1")));
}

TEST_F(ForwarderTest, MulticastStrategyUsesFib) {
  // Swap in the default strategy and register a route.
  fw.set_strategy(std::make_unique<MulticastStrategy>());
  fw.fib().add_route(Name("/fib"), wifi->id());
  app->inject(interest("/fib/x"));
  ASSERT_EQ(wifi->sent_interests.size(), 1u);
  // No route for other names.
  app->inject(interest("/nowhere"));
  EXPECT_EQ(wifi->sent_interests.size(), 1u);
}

}  // namespace
}  // namespace dapes::ndn
