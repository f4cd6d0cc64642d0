// Statistical-property and determinism suite for the channel realism
// stack (DESIGN.md "Channel realism round two"): Gilbert-Elliott bursty
// erasures, Rayleigh/Rician fast fading and SIR-adaptive bitrate
// selection.
//
// Three layers of guarantees:
//  1. Statistics match closed form. The GE process's empirical
//     stationary occupancy, per-slot transition frequencies and mean
//     burst length over thousands of keyed draws agree with the
//     analytic two-state Markov values it was constructed from; the
//     fading gain's power moments match the Rayleigh/Rician formulas
//     (and K -> infinity degenerates to no fading).
//  2. Pure-function determinism. Link state is a pure function of
//     (seed, pair, time) — repeatable, symmetric in the pair — and the
//     whole stack stays bit-identical across grid-vs-brute for every
//     model combination, and across --jobs 1-vs-8 for the sweep axes.
//  3. The harness closes the link_seed foot-gun: Topology always
//     installs a per-trial link_seed (distinct across trial seeds) when
//     the caller leaves the field at 0.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "harness/driver.hpp"
#include "harness/scenario.hpp"
#include "harness/sweep.hpp"
#include "harness/topology.hpp"
#include "harness/trial_runner.hpp"
#include "medium_test_world.hpp"
#include "sim/channel.hpp"
#include "sim/medium.hpp"
#include "sim/mobility.hpp"

namespace dapes::sim {
namespace {

using testworld::World;
using testworld::build_world;
using testworld::world_hash;

// A short-burst chain whose mean burst (~3.8 slots) fits comfortably
// inside the 32-slot anchor blocks, so complete bursts are observable.
ChannelParams burst_params() {
  ChannelParams cp;
  cp.model = "log-distance";
  cp.ge_bad_fraction = 0.3;
  cp.ge_mean_burst_ms = 30.0;
  cp.link_seed = 42;
  return cp;
}

// ---------------------------------------------------------------------
// 1. Gilbert-Elliott statistics vs closed form.
// ---------------------------------------------------------------------

TEST(GilbertElliott, ClosedFormParametersAreConsistent) {
  GilbertElliott ge(burst_params());
  ASSERT_TRUE(ge.enabled());
  EXPECT_DOUBLE_EQ(ge.stationary_bad(), 0.3);
  EXPECT_DOUBLE_EQ(ge.slot_s(), 0.01);
  // The one-slot transition matrix must preserve the stationary
  // distribution: pi = pi * p_bb + (1 - pi) * p_gb.
  const double pi = ge.stationary_bad();
  EXPECT_NEAR(pi, pi * ge.p_stay_bad() + (1.0 - pi) * ge.p_enter_bad(),
              1e-12);
  // And match the analytic CTMC solution directly.
  const double mu = 1.0 / 0.03;
  const double lambda = mu * pi / (1.0 - pi);
  const double decay = std::exp(-(lambda + mu) * ge.slot_s());
  EXPECT_NEAR(ge.p_enter_bad(), pi * (1.0 - decay), 1e-12);
  EXPECT_NEAR(ge.p_stay_bad(), pi + (1.0 - pi) * decay, 1e-12);
}

TEST(GilbertElliott, StationaryOccupancyMatchesClosedForm) {
  GilbertElliott ge(burst_params());
  // One sample per link: samples across links use independent keyed
  // substreams, so the empirical mean is a 10k-draw estimate of pi.
  const int kLinks = 10000;
  int bad = 0;
  for (int i = 0; i < kLinks; ++i) {
    const auto a = static_cast<uint32_t>(2 * i);
    const auto b = static_cast<uint32_t>(2 * i + 1);
    if (ge.bad_at(a, b, 1.2345)) ++bad;
  }
  const double empirical = static_cast<double>(bad) / kLinks;
  // 3 binomial sigmas is ~0.014 at n = 10k; the draws are seeded, so
  // this never flakes — it fails only if the math drifts.
  EXPECT_NEAR(empirical, ge.stationary_bad(), 0.02);
}

TEST(GilbertElliott, TransitionFrequenciesAndBurstLengthMatchClosedForm) {
  GilbertElliott ge(burst_params());
  // Walk consecutive slots inside anchor blocks (a block boundary
  // restarts the chain from its stationary distribution, so only
  // within-block pairs are Markov transitions of the per-slot matrix).
  const int kLinks = 500;
  const int kSlots = 128;  // 4 blocks per link
  int64_t from_good = 0, good_to_bad = 0;
  int64_t from_bad = 0, bad_to_bad = 0;
  std::vector<int64_t> burst_lengths;
  for (int link = 0; link < kLinks; ++link) {
    const auto a = static_cast<uint32_t>(2 * link);
    const auto b = static_cast<uint32_t>(2 * link + 1);
    std::vector<bool> state(kSlots);
    for (int s = 0; s < kSlots; ++s) {
      state[s] = ge.bad_at(a, b, (s + 0.5) * ge.slot_s());
    }
    for (int s = 0; s + 1 < kSlots; ++s) {
      if (s % GilbertElliott::kBlockSlots ==
          GilbertElliott::kBlockSlots - 1) {
        continue;  // (s, s+1) straddles an anchor boundary
      }
      if (state[s]) {
        ++from_bad;
        if (state[s + 1]) ++bad_to_bad;
      } else {
        ++from_good;
        if (state[s + 1]) ++good_to_bad;
      }
    }
    // Complete bursts: bad runs strictly inside one block, with a good
    // slot on both sides. Their lengths are geometric(1 - p_bb).
    for (int block = 0; block < kSlots / GilbertElliott::kBlockSlots;
         ++block) {
      const int lo = block * GilbertElliott::kBlockSlots;
      const int hi = lo + GilbertElliott::kBlockSlots;
      int run = 0;
      for (int s = lo; s < hi; ++s) {
        if (state[s]) {
          ++run;
        } else {
          if (run > 0 && s - run > lo) burst_lengths.push_back(run);
          run = 0;
        }
      }
    }
  }
  ASSERT_GT(from_good, 10000);
  ASSERT_GT(from_bad, 10000);
  const double p_gb = static_cast<double>(good_to_bad) / from_good;
  const double p_bb = static_cast<double>(bad_to_bad) / from_bad;
  EXPECT_NEAR(p_gb, ge.p_enter_bad(), 0.02);
  EXPECT_NEAR(p_bb, ge.p_stay_bad(), 0.02);

  ASSERT_GT(burst_lengths.size(), 1000u);
  double sum = 0.0;
  for (int64_t len : burst_lengths) sum += static_cast<double>(len);
  const double mean_burst = sum / static_cast<double>(burst_lengths.size());
  // Geometric mean burst length 1/(1 - p_bb) ~ 3.8 slots; the
  // inside-one-block filter truncates long bursts slightly, so the
  // tolerance is looser than the transition-frequency ones.
  EXPECT_NEAR(mean_burst, 1.0 / (1.0 - ge.p_stay_bad()), 0.5);
}

TEST(GilbertElliott, StateIsAPureSymmetricFunction) {
  GilbertElliott ge(burst_params());
  common::Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    const auto a = static_cast<uint32_t>(rng.next_below(50));
    const auto b = static_cast<uint32_t>(rng.next_below(50));
    const double t = rng.uniform(0.0, 60.0);
    const bool s = ge.bad_at(a, b, t);
    EXPECT_EQ(s, ge.bad_at(a, b, t));  // repeatable
    EXPECT_EQ(s, ge.bad_at(b, a, t));  // unordered pair
  }
  // Different pairs / different link seeds decorrelate: both states must
  // occur somewhere.
  int bad = 0;
  for (uint32_t i = 0; i < 64; ++i) bad += ge.bad_at(i, i + 1, 0.5) ? 1 : 0;
  EXPECT_GT(bad, 0);
  EXPECT_LT(bad, 64);
}

TEST(GilbertElliott, RejectsSaturatedBadFraction) {
  ChannelParams cp = burst_params();
  cp.ge_bad_fraction = 1.0;
  EXPECT_THROW(GilbertElliott{cp}, std::invalid_argument);
  EXPECT_THROW(make_channel_model(cp), std::invalid_argument);
  cp.ge_bad_fraction = 0.0;
  EXPECT_FALSE(GilbertElliott{cp}.enabled());
}

// ---------------------------------------------------------------------
// 2. Fading moments vs closed form.
// ---------------------------------------------------------------------

TEST(Fading, RayleighPowerAndEnvelopeMomentsMatchTheory) {
  common::Rng rng(123);
  const int kDraws = 20000;
  double sum_g = 0.0, sum_g2 = 0.0, sum_env = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double g = std::pow(10.0, fading_gain_db(rng, 0.0) / 10.0);
    sum_g += g;
    sum_g2 += g * g;
    sum_env += std::sqrt(g);
  }
  const double mean = sum_g / kDraws;
  const double var = sum_g2 / kDraws - mean * mean;
  // Rayleigh power is Exp(1): mean 1, variance 1; the envelope mean is
  // sqrt(pi)/2.
  EXPECT_NEAR(mean, 1.0, 0.03);
  EXPECT_NEAR(var, 1.0, 0.1);
  EXPECT_NEAR(sum_env / kDraws, std::sqrt(3.14159265358979323846) / 2.0,
              0.02);
}

TEST(Fading, RicianPowerMomentsMatchTheory) {
  const double k = 4.0;
  common::Rng rng(321);
  const int kDraws = 20000;
  double sum_g = 0.0, sum_g2 = 0.0;
  for (int i = 0; i < kDraws; ++i) {
    const double g = std::pow(10.0, fading_gain_db(rng, k) / 10.0);
    sum_g += g;
    sum_g2 += g * g;
  }
  const double mean = sum_g / kDraws;
  const double var = sum_g2 / kDraws - mean * mean;
  // Unit mean power by construction; Rician power variance is
  // (2K + 1) / (K + 1)^2.
  EXPECT_NEAR(mean, 1.0, 0.03);
  EXPECT_NEAR(var, (2.0 * k + 1.0) / ((k + 1.0) * (k + 1.0)), 0.05);
}

TEST(Fading, LargeKDegeneratesToNoFading) {
  common::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_NEAR(fading_gain_db(rng, 1e8), 0.0, 0.01);
  }
}

TEST(Fading, UnknownStageNameThrows) {
  ChannelParams cp;
  cp.model = "log-distance";
  cp.fading = "nakagami";
  EXPECT_THROW(make_channel_model(cp), std::invalid_argument);
  EXPECT_EQ(channel_fading_names(),
            (std::vector<std::string>{"none", "rayleigh", "rician"}));
}

// ---------------------------------------------------------------------
// 3. SIR-adaptive bitrate.
// ---------------------------------------------------------------------

TEST(AdaptiveRate, TierLadderIsMonotoneAndBoundedByBaseRate) {
  ChannelParams cp;
  cp.model = "log-distance";
  cp.adaptive_rate = true;
  ChannelModelPtr ch = make_channel_model(cp);
  ASSERT_TRUE(ch->adaptive_rate());
  const double base = 11e6;
  double prev = 0.0;
  for (double sir = -30.0; sir <= 30.0; sir += 1.0) {
    const double rate = ch->select_rate_bps(base, sir);
    EXPECT_LE(rate, base);
    EXPECT_GE(rate, prev);  // more SIR never slows you down
    prev = rate;
  }
  EXPECT_DOUBLE_EQ(ch->select_rate_bps(base, 15.0), base);
  EXPECT_DOUBLE_EQ(ch->select_rate_bps(base, 7.0), base / 2.0);
  EXPECT_DOUBLE_EQ(ch->select_rate_bps(base, 2.0), base / 4.0);
  EXPECT_DOUBLE_EQ(ch->select_rate_bps(base, -20.0), base / 8.0);
}

TEST(AdaptiveRate, InterferenceExtendsAirtimeDeterministically) {
  // Two senders well inside each other's coverage. The second frame
  // starts while the first is on the air: with adaptive rate its SIR
  // estimate is negative, the tier ladder bottoms out, and its airtime
  // stretches by the full 2^(tiers-1) factor; an uncontended frame
  // stays at the base rate exactly.
  auto completion_us = [](bool adaptive, bool contended) {
    Scheduler sched;
    Medium::Params mp;
    mp.range_m = 60.0;
    mp.loss_rate = 0.0;
    mp.data_rate_bps = 1e6;
    mp.channel.model = "log-distance";
    mp.channel.softness_db = 0.0;
    mp.channel.adaptive_rate = adaptive;
    mp.channel.link_seed = 11;
    Medium medium(sched, mp, common::Rng(1));
    StationaryMobility a({0.0, 0.0});
    StationaryMobility b({20.0, 0.0});
    medium.add_node(&a, nullptr);
    medium.add_node(&b, nullptr);
    int64_t done_us = -1;
    sched.schedule_at(TimePoint{0}, [&] {
      if (contended) {
        auto f = std::make_shared<Frame>();
        f->sender = 0;
        f->payload = common::Bytes(5000, 0x1);
        f->kind = "jam";
        medium.transmit(f);
      }
      auto g = std::make_shared<Frame>();
      g->sender = 1;
      g->payload = common::Bytes(1000, 0x2);
      g->kind = "probe";
      medium.transmit(g, [&](const Medium::TxReport&) {
        done_us = sched.now().us;
      });
    });
    sched.run();
    EXPECT_GE(done_us, 0);
    return done_us;
  };

  const int64_t base_idle = completion_us(false, false);
  const int64_t adaptive_idle = completion_us(true, false);
  // No interferer: the adaptive path must charge exactly the base rate.
  EXPECT_EQ(adaptive_idle, base_idle);

  const int64_t base_jam = completion_us(false, true);
  const int64_t adaptive_jam = completion_us(true, true);
  EXPECT_GT(adaptive_jam, base_jam);
  // SIR ~ -14 dB at 20 m spacing bottoms the 4-tier ladder: 8x the
  // payload bits on the air (the 192 us preamble is rate-independent).
  const int64_t payload_us =
      (1000 + Medium::kFrameOverheadBytes) * 8;  // bits at 1 Mbps
  EXPECT_EQ(adaptive_jam - base_jam, payload_us * 7);
}

// ---------------------------------------------------------------------
// 4. Determinism equivalence: grid vs brute force for every new model
// combination (the same randomized worlds the PR-5 suite pins).
// ---------------------------------------------------------------------

/// Seed-indexed knob combination: 12 seeds cover every subset of
/// {burst, fading, shadowing} with both fading kinds, plus adaptive rate
/// on every third seed.
ChannelParams combo_params(uint64_t seed) {
  ChannelParams cp;
  cp.model = "log-distance";
  cp.path_loss_exponent = 3.0;
  cp.softness_db = 2.0;
  cp.link_seed = common::derive_seed(seed, 81);
  if (seed % 2 == 1) {
    cp.ge_bad_fraction = 0.3;
    cp.ge_mean_burst_ms = 50.0;
  }
  switch ((seed / 2) % 3) {
    case 1:
      cp.fading = "rayleigh";
      break;
    case 2:
      cp.fading = "rician";
      cp.rician_k = 3.0;
      break;
    default:
      break;
  }
  if ((seed / 4) % 2 == 1) cp.shadowing_sigma_db = 6.0;
  if (seed % 3 == 0) cp.adaptive_rate = true;
  return cp;
}

class BurstStackEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BurstStackEquivalence, GridMatchesBruteForceExactly) {
  const uint64_t seed = GetParam();
  const ChannelParams cp = combo_params(seed);
  World grid, brute;
  build_world(grid, seed, /*brute=*/false, &cp);
  build_world(brute, seed, /*brute=*/true, &cp);
  grid.sched.run();
  brute.sched.run();

  ASSERT_EQ(grid.log.size(), brute.log.size());
  for (size_t i = 0; i < grid.log.size(); ++i) {
    SCOPED_TRACE(i);
    EXPECT_EQ(grid.log[i], brute.log[i]);
  }
  EXPECT_EQ(world_hash(grid), world_hash(brute));
}

INSTANTIATE_TEST_SUITE_P(Seeds, BurstStackEquivalence,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace dapes::sim

// ---------------------------------------------------------------------
// 5. Harness-level determinism: --jobs identity for the new sweep axes,
// and the link_seed foot-gun closure.
// ---------------------------------------------------------------------

namespace dapes::harness {
namespace {

/// Tiny but traffic-bearing DAPES world on the log-distance model.
ScenarioParams stack_params(uint64_t seed) {
  ScenarioParams p;
  p.files = 1;
  p.file_size_bytes = 8 * 1024;
  p.mobile_downloaders = 8;
  p.stationary_downloaders = 2;
  p.pure_forwarders = 3;
  p.dapes_intermediates = 3;
  p.wifi_range_m = 80.0;
  p.data_rate_bps = 11e6;
  p.sim_limit_s = 120.0;
  p.seed = seed;
  p.channel.model = "log-distance";
  return p;
}

TEST(BurstStackEngines, SweepJobsOneAndEightBitIdentical) {
  // The new sweep axes (burst length, K-factor) under parallel trial
  // dispatch: --jobs must not change a single bit of any metric.
  SweepSpec spec;
  spec.title = "burst/kfactor jobs identity";
  spec.base.files = 1;
  spec.base.file_size_bytes = 4 * 1024;
  spec.base.sim_limit_s = 20.0;
  spec.base.seed = 42;
  spec.base.channel.model = "log-distance";
  spec.trials = 2;
  spec.axis.label = "burst_ms";
  spec.axis.values = {30.0, 200.0};
  spec.axis.apply = [](ScenarioParams& p, double x) {
    p.channel.ge_mean_burst_ms = x;
  };
  spec.series.push_back({"burst", ProtocolNames::kDapes,
                         [](ScenarioParams& p) {
                           p.channel.ge_bad_fraction = 0.3;
                         }});
  spec.series.push_back({"burst+rician", ProtocolNames::kDapes,
                         [](ScenarioParams& p) {
                           p.channel.ge_bad_fraction = 0.3;
                           p.channel.fading = "rician";
                           p.channel.rician_k = 2.0;
                           p.channel.adaptive_rate = true;
                         }});
  spec.metrics = {download_time_metric(), transmissions_k_metric(),
                  completion_metric()};

  SweepResult serial = run_sweep(spec, TrialRunner(1));
  SweepResult parallel = run_sweep(spec, TrialRunner(8));
  ASSERT_EQ(serial.values.size(), parallel.values.size());
  for (size_t m = 0; m < serial.values.size(); ++m) {
    for (size_t s = 0; s < serial.values[m].size(); ++s) {
      for (size_t x = 0; x < serial.values[m][s].size(); ++x) {
        EXPECT_EQ(serial.values[m][s][x], parallel.values[m][s][x])
            << "metric=" << m << " series=" << s << " x=" << x;
      }
    }
  }
}

// ---------------------------------------------------------------------
// 6. The link_seed foot-gun is closed at the harness layer.
// ---------------------------------------------------------------------

TEST(LinkSeedFootGun, TopologyAlwaysInstallsAPerTrialLinkSeed) {
  ScenarioParams p = stack_params(1);
  ASSERT_EQ(p.channel.link_seed, 0u) << "default must start unset";
  uint64_t first = 0;
  for (uint64_t seed : {1u, 2u, 3u}) {
    Topology topo(p, seed, "/linkseed-test", "/linkseed-key", "file-");
    const uint64_t installed = topo.medium->params().channel.link_seed;
    // Never the shared-across-trials 0 stream, and distinct per trial.
    EXPECT_NE(installed, 0u) << "seed=" << seed;
    EXPECT_NE(installed, first) << "seed=" << seed;
    if (seed == 1) first = installed;
  }
}

TEST(LinkSeedFootGun, ExplicitLinkSeedIsPreserved) {
  ScenarioParams p = stack_params(1);
  p.channel.link_seed = 0xdeadbeefULL;
  Topology topo(p, 7, "/linkseed-test", "/linkseed-key", "file-");
  EXPECT_EQ(topo.medium->params().channel.link_seed, 0xdeadbeefULL);
}

}  // namespace
}  // namespace dapes::harness
