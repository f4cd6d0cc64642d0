// Tests for the experiment harness: metric aggregation and end-to-end
// trials (DAPES, Bithoc, Ekta, real-world scenarios) at a tiny scale.
#include <gtest/gtest.h>

#include "harness/driver.hpp"
#include "harness/metrics.hpp"
#include "harness/realworld.hpp"
#include "harness/scenario.hpp"
#include "harness/trial_runner.hpp"

namespace dapes::harness {
namespace {

TEST(Percentile, InterpolatesAndBounds) {
  std::vector<double> v = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(v, 0), 10);
  EXPECT_DOUBLE_EQ(percentile(v, 100), 40);
  EXPECT_DOUBLE_EQ(percentile(v, 50), 25);
  EXPECT_DOUBLE_EQ(percentile(v, 90), 37.0);
}

TEST(Percentile, SingleValueAndEmpty) {
  EXPECT_DOUBLE_EQ(percentile({7.0}, 90), 7.0);
  EXPECT_DOUBLE_EQ(percentile({}, 90), 0.0);
}

TEST(Percentile, UnsortedInput) {
  EXPECT_DOUBLE_EQ(percentile({30, 10, 20}, 50), 20);
}

ScenarioParams tiny_params() {
  ScenarioParams p;
  p.files = 2;
  p.file_size_bytes = 4 * 1024;
  p.mobile_downloaders = 6;
  p.stationary_downloaders = 2;
  p.pure_forwarders = 2;
  p.dapes_intermediates = 2;
  p.wifi_range_m = 80.0;
  p.data_rate_bps = 11e6;
  p.sim_limit_s = 600.0;
  p.seed = 3;
  return p;
}

TEST(Scenario, DapesTrialCompletes) {
  TrialResult r = run_dapes_trial(tiny_params());
  EXPECT_GT(r.completion_fraction, 0.9);
  EXPECT_GT(r.transmissions, 0u);
  EXPECT_LT(r.download_time_s, 600.0);
  EXPECT_GT(r.tx_by_kind.count("ndn-interest"), 0u);
}

TEST(Scenario, DapesTrialDeterministicForSeed) {
  TrialResult a = run_dapes_trial(tiny_params());
  TrialResult b = run_dapes_trial(tiny_params());
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_DOUBLE_EQ(a.download_time_s, b.download_time_s);
}

TEST(Scenario, BithocTrialCompletes) {
  TrialResult r = run_bithoc_trial(tiny_params());
  EXPECT_GT(r.completion_fraction, 0.9);
  EXPECT_GT(r.tx_by_kind.count("bithoc-hello"), 0u);
  EXPECT_GT(r.tx_by_kind.count("dsdv-update"), 0u);
}

TEST(Scenario, EktaTrialCompletes) {
  TrialResult r = run_ekta_trial(tiny_params());
  EXPECT_GT(r.completion_fraction, 0.9);
}

TEST(Scenario, DapesBeatsBaselinesOnOverhead) {
  // The paper's headline (Fig. 10b), checked at reduced scale.
  TrialResult dapes = run_dapes_trial(tiny_params());
  TrialResult bithoc = run_bithoc_trial(tiny_params());
  EXPECT_LT(dapes.transmissions, bithoc.transmissions);
}

TEST(Scenario, ChannelDefaultsAreInert) {
  // Paper-sweep proxy at tiny scale (the real fig9b/table1 runs are the
  // same code path at larger n): the default-knob trial is pinned to
  // golden values captured from the seed tree, so no future channel
  // knob can silently leak into the paper sweeps. If this fails while
  // the channel suites pass, a new ChannelParams field changed behavior
  // at its default value — that is a bug in the new knob, not here.
  TrialResult r = run_dapes_trial(tiny_params());
  EXPECT_EQ(r.transmissions, 720u);
  EXPECT_EQ(r.events_executed, 2626u);
  EXPECT_DOUBLE_EQ(r.download_time_s, 20.382561571428571);
  EXPECT_DOUBLE_EQ(r.completion_fraction, 1.0);

  // And spelling out every channel knob at its documented default must
  // be indistinguishable from an untouched ChannelParams — the knobs'
  // "off" values really are off.
  ScenarioParams p = tiny_params();
  sim::ChannelParams& c = p.channel;
  c.model = "unit-disk";
  c.capture_ratio = 0.7;
  c.path_loss_exponent = 3.0;
  c.shadowing_sigma_db = 0.0;
  c.softness_db = 2.0;
  c.ge_bad_fraction = 0.0;
  c.ge_mean_burst_ms = 200.0;
  c.fading = "none";
  c.rician_k = 4.0;
  c.adaptive_rate = false;
  c.link_seed = 0;
  TrialResult spelled = run_dapes_trial(p);
  EXPECT_EQ(spelled.transmissions, r.transmissions);
  EXPECT_EQ(spelled.events_executed, r.events_executed);
  EXPECT_DOUBLE_EQ(spelled.download_time_s, r.download_time_s);
}

// The scripted Fig. 8 knobs (50 m MacBook WiFi range, 1500 s cap) at a
// reduced collection size.
ScenarioParams realworld_params() {
  ScenarioParams p;
  p.wifi_range_m = 50.0;
  p.sim_limit_s = 1500.0;
  p.files = 2;
  p.file_size_bytes = 8 * 1024;
  p.seed = 5;
  return p;
}

TEST(RealWorld, DefaultKnobsMatchSeedTreeGoldens) {
  // Table I's scenario runner under default knobs, same pin as above.
  TrialResult r =
      run_trial(ProtocolNames::kRealWorldCarrier, realworld_params());
  EXPECT_EQ(r.transmissions, 1101u);
  EXPECT_DOUBLE_EQ(r.download_time_s, 335.49570699999998);
  EXPECT_EQ(r.system_calls, 5160u);
}

TEST(Scenario, MultiTrialSeedsVary) {
  auto results = TrialRunner(1).run(ProtocolNames::kDapes, tiny_params(), 2);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_NE(results[0].transmissions, results[1].transmissions);
}

TEST(RealWorld, AllScenariosComplete) {
  for (const char* name :
       {ProtocolNames::kRealWorldCarrier, ProtocolNames::kRealWorldRepository,
        ProtocolNames::kRealWorldMoving}) {
    TrialResult r = run_trial(name, realworld_params());
    EXPECT_DOUBLE_EQ(r.completion_fraction, 1.0) << name;
    EXPECT_GT(r.transmissions, 0u);
    EXPECT_GT(r.peak_state_bytes, 0u);
    EXPECT_GT(r.system_calls, 0u);
  }
}

TEST(RealWorld, CarrierSlowerThanMovingNodes) {
  // Table I's qualitative claim at reduced scale.
  TrialResult s1 =
      run_trial(ProtocolNames::kRealWorldCarrier, realworld_params());
  TrialResult s3 =
      run_trial(ProtocolNames::kRealWorldMoving, realworld_params());
  EXPECT_GT(s1.download_time_s, s3.download_time_s);
}

TEST(RealWorld, RejectsBadScenario) {
  EXPECT_THROW(run_realworld_trial(0, realworld_params()),
               std::invalid_argument);
  EXPECT_THROW(run_realworld_trial(4, realworld_params()),
               std::invalid_argument);
}

}  // namespace
}  // namespace dapes::harness
