// Invariant suite for the pluggable channel/PHY layer (sim/channel.hpp).
//
// The four contracts DESIGN.md "Channel & PHY models" promises:
//  1. The unit-disk ChannelModel is *bit-identical* to the pre-refactor
//     medium: the 12-seed randomized equivalence streams (the exact
//     worlds tests/test_medium_equivalence.cpp builds) hash to golden
//     values captured from the tree before the channel layer existed.
//  2. The log-distance reception probability is monotone non-increasing
//     in distance, 0.5 at the nominal range, and exactly 0 beyond the
//     deterministic coverage cutoff.
//  3. The capture rule is order-independent: the survive/collide decision
//     is a fold of a pure per-interferer predicate, so neither the order
//     interferers are marked nor the order transmissions start changes
//     any delivery outcome.
//  4. Airtime grows strictly with payload size (and the log-distance
//     model charges its fixed PHY preamble).
// Plus the engine-level guarantees the new scenario families lean on:
// grid-vs-brute identity under the log-distance channel (keyed draws)
// and under mixed-range radios (per-frame coverage, directional
// neighbor queries), dense in-flight goldens, quasi-static per-link
// shadowing, and bit-identical log-distance sweeps for any --jobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "harness/driver.hpp"
#include "harness/sweep.hpp"
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

// ---------------------------------------------------------------------
// 1. Unit-disk reference: bit-identical to the pre-refactor medium.
// ---------------------------------------------------------------------

/// Golden log hashes of the 12 equivalence streams, captured from the
/// tree immediately *before* the channel layer was introduced (grid and
/// brute agreed on every one, so one hash per seed). Any change to RNG
/// draw order, receiver enumeration, collision marking or capture
/// arithmetic under the default channel shows up here.
constexpr uint64_t kPreRefactorHashes[12] = {
    0x35330c4b165225e3ULL, 0x1db81aad1c59e10bULL, 0x9f5faa631012dcf3ULL,
    0x00de7d9414d7870fULL, 0x397f6afb2772cf5fULL, 0x64bbad7db9ee554fULL,
    0xb4b9c36d49663f6eULL, 0x67669a0cf5e8e7d7ULL, 0x1ec5b374d524ddb3ULL,
    0x41fc357b2989f6d5ULL, 0xa217f4135b93b198ULL, 0x78875166e5664132ULL,
};

class UnitDiskGolden : public ::testing::TestWithParam<uint64_t> {};

TEST_P(UnitDiskGolden, BitIdenticalToPreRefactorMedium) {
  const uint64_t seed = GetParam();
  for (bool brute : {false, true}) {
    World w;
    build_world(w, seed, brute, nullptr);
    w.sched.run();
    EXPECT_EQ(world_hash(w), kPreRefactorHashes[seed - 1])
        << "seed=" << seed << " brute=" << brute;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnitDiskGolden,
                         ::testing::Range<uint64_t>(1, 13));

// ---------------------------------------------------------------------
// 1a. Dense in-flight goldens: all 80 frames inside a 2 ms window.
// ---------------------------------------------------------------------

/// Golden log hashes of the 12 worlds with hetero radios and the traffic
/// squeezed into 2 ms, so dozens of frames share the air and every
/// collision, capture and carrier-sense answer involves many in-flight
/// frames. Captured from the tree that still indexed in-flight frames
/// spatially and pruned collision pairs by distance (grid and brute
/// agreed on every one); the direct scan must reproduce them. Row 0 is
/// the unit-disk channel, row 1 the plain log-distance configuration of
/// LogDistanceGolden.
constexpr uint64_t kDenseInFlightHashes[2][12] = {
    {
        0xac690c7d404f8223ULL, 0xfc7d7f66b8e99d7eULL, 0xb68b9c2f3d769a27ULL,
        0x64b5a01fe73a3eb3ULL, 0xfa9c763a5ec95312ULL, 0x00cb910426fb020cULL,
        0x647fbda2371ce3beULL, 0xed4bd659a5c4c142ULL, 0x2f595777c3746f1aULL,
        0x38e8bd53a221040eULL, 0xccbce1270a995e43ULL, 0xbd6d4f153e58ea70ULL,
    },
    {
        0x36829443911274e5ULL, 0xec9734d08be92762ULL, 0x950f9c076613c309ULL,
        0xefb621cd64e8a322ULL, 0x5df430f69b43603eULL, 0xdd6c188709d59f31ULL,
        0xd2a8cac171441ba9ULL, 0x2292089592a9e7ecULL, 0x3d3ad9c436b41fa5ULL,
        0xe0f86d96e96bfd7eULL, 0xc7ac6528501a6a6bULL, 0x3a432dde0c07107eULL,
    },
};

/// The plain log-distance configuration both log-distance golden sets
/// pin (alpha 3, sigma 6 dB, softness 2 dB, per-seed link seed).
ChannelParams plain_log_distance(uint64_t seed) {
  ChannelParams cp;
  cp.model = "log-distance";
  cp.path_loss_exponent = 3.0;
  cp.shadowing_sigma_db = 6.0;
  cp.softness_db = 2.0;
  cp.link_seed = common::derive_seed(seed, 78);
  return cp;
}

class DenseInFlightGolden : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DenseInFlightGolden, HeteroRadiosUnderHeavyOverlap) {
  const uint64_t seed = GetParam();
  const ChannelParams log_distance = plain_log_distance(seed);
  for (int row : {0, 1}) {
    for (bool brute : {false, true}) {
      World w;
      build_world(w, seed, brute, row == 1 ? &log_distance : nullptr,
                  /*hetero_radios=*/true, Duration::milliseconds(2));
      w.sched.run();
      EXPECT_EQ(world_hash(w), kDenseInFlightHashes[row][seed - 1])
          << "seed=" << seed << " log_distance=" << row << " brute=" << brute;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DenseInFlightGolden,
                         ::testing::Range<uint64_t>(1, 13));

// ---------------------------------------------------------------------
// 1b. Plain log-distance: zero drift for existing configs.
// ---------------------------------------------------------------------

/// Golden log hashes of the same 12 worlds under a fixed plain
/// log-distance configuration (PR-5 knobs only: alpha 3, sigma 6 dB,
/// softness 2 dB, link_seed derived per seed), captured when the
/// channel realism stack (Gilbert-Elliott bursts, fading, correlated
/// shadowing, adaptive rate) was introduced. The stack's contract is
/// that every disabled stage consumes *zero* draws, so configurations
/// predating it replay the exact same RNG streams — any new stage that
/// sneaks a draw into the default path shows up here.
constexpr uint64_t kLogDistanceHashes[12] = {
    0x3f612ffa6c90f2a0ULL, 0xf667ddb989d91e91ULL, 0x667831f5a45d4fd0ULL,
    0xeba61f54dc60780aULL, 0x2bd689030dad40a8ULL, 0x42fe84b2d55efb58ULL,
    0x30234695a38b49bbULL, 0xebbe0c2d50bf7ff2ULL, 0xe7d8b99de5176a10ULL,
    0x7928f99ca59d9058ULL, 0xa1fd92a4b960350aULL, 0x2db040f8a7c9b908ULL,
};

class LogDistanceGolden : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LogDistanceGolden, PlainLogDistanceConfigHasZeroDrift) {
  const uint64_t seed = GetParam();
  const ChannelParams cp = plain_log_distance(seed);
  for (bool brute : {false, true}) {
    World w;
    build_world(w, seed, brute, &cp);
    w.sched.run();
    EXPECT_EQ(world_hash(w), kLogDistanceHashes[seed - 1])
        << "seed=" << seed << " brute=" << brute;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LogDistanceGolden,
                         ::testing::Range<uint64_t>(1, 13));

// ---------------------------------------------------------------------
// 2. Log-distance reception curve.
// ---------------------------------------------------------------------

TEST(LogDistanceChannel, ReceptionProbabilityMonotoneInDistance) {
  for (double alpha : {2.0, 3.0, 4.5}) {
    for (double sigma : {0.0, 4.0, 8.0}) {
      for (double softness : {0.0, 2.0}) {
        ChannelParams cp;
        cp.model = "log-distance";
        cp.path_loss_exponent = alpha;
        cp.shadowing_sigma_db = sigma;
        cp.softness_db = softness;
        ChannelModelPtr ch = make_channel_model(cp);
        const double range = 60.0;
        const double coverage = ch->coverage_m(range);
        ASSERT_GE(coverage, range);
        double prev = 1.0;
        for (double d = 1.0; d <= coverage * 1.2; d += coverage / 200.0) {
          double p = ch->reception_probability(d, range);
          EXPECT_LE(p, prev) << "alpha=" << alpha << " sigma=" << sigma
                             << " softness=" << softness << " d=" << d;
          EXPECT_GE(p, 0.0);
          EXPECT_LE(p, 1.0);
          if (d > coverage) EXPECT_EQ(p, 0.0);
          prev = p;
        }
        if (softness > 0.0) {
          EXPECT_NEAR(ch->reception_probability(range, range), 0.5, 1e-9);
        } else {
          // Softness 0 degenerates to the unit-disk step at the range.
          EXPECT_EQ(ch->reception_probability(range * 0.999, range), 1.0);
          EXPECT_EQ(ch->reception_probability(range * 1.001, range), 0.0);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// 3. Capture is order-independent.
// ---------------------------------------------------------------------

TEST(Capture, FoldOverInterferersIsOrderIndependent) {
  for (const char* model : {"unit-disk", "log-distance"}) {
    ChannelParams cp;
    cp.model = model;
    ChannelModelPtr ch = make_channel_model(cp);
    common::Rng rng(7);
    for (int trial = 0; trial < 200; ++trial) {
      const double own_d = rng.uniform(1.0, 100.0);
      const double own_r = rng.uniform(20.0, 80.0);
      std::vector<std::pair<double, double>> interferers;
      const size_t k = 1 + rng.next_below(5);
      for (size_t i = 0; i < k; ++i) {
        interferers.push_back(
            {rng.uniform(1.0, 150.0), rng.uniform(20.0, 80.0)});
      }
      auto collides = [&](const std::vector<std::pair<double, double>>& v) {
        for (const auto& [d, r] : v) {
          if (!ch->captured(own_d, own_r, d, r)) return true;
        }
        return false;
      };
      const bool reference = collides(interferers);
      for (int perm = 0; perm < 8; ++perm) {
        rng.shuffle(interferers);
        EXPECT_EQ(collides(interferers), reference) << model;
      }
    }
  }
}

TEST(Capture, TransmissionStartOrderDoesNotChangeDeliveries) {
  // Receiver at the origin; a near sender whose frame the capture rule
  // saves, and a far sender whose frame dies in the overlap. With a
  // deterministic channel (no shadowing, hard curve, zero ambient loss)
  // the delivered set must be identical whichever transmission is
  // submitted first within the same event.
  for (bool near_first : {false, true}) {
    Scheduler sched;
    Medium::Params mp;
    mp.range_m = 60.0;
    mp.loss_rate = 0.0;
    mp.channel.model = "log-distance";
    mp.channel.shadowing_sigma_db = 0.0;
    mp.channel.softness_db = 0.0;
    Medium medium(sched, mp, common::Rng(1));

    StationaryMobility receiver({0.0, 0.0});
    StationaryMobility near_sender({10.0, 0.0});
    StationaryMobility far_sender({40.0, 0.0});
    std::vector<std::string> delivered;
    medium.add_node(&receiver, [&](const FramePtr& f, NodeId) {
      delivered.push_back(f->kind);
    });
    medium.add_node(&near_sender, nullptr);
    medium.add_node(&far_sender, nullptr);

    auto send = [&](NodeId sender, const char* kind) {
      auto f = std::make_shared<Frame>();
      f->sender = sender;
      f->payload = common::Bytes(200, 0x2a);
      f->kind = kind;
      medium.transmit(f);
    };
    sched.schedule_at(TimePoint{0}, [&] {
      if (near_first) {
        send(1, "near");
        send(2, "far");
      } else {
        send(2, "far");
        send(1, "near");
      }
    });
    sched.run();

    // SIR of the near frame over the far one at the receiver:
    // 30*log10(40/10) ≈ 18 dB >= 6 dB threshold -> captured; the far
    // frame's SIR is -18 dB -> collided. Either submission order. (The
    // two senders also hear each other's frames and each drops the other
    // on the overlap, hence 3 collision drops in total.)
    ASSERT_EQ(delivered.size(), 1u) << "near_first=" << near_first;
    EXPECT_EQ(delivered[0], "near");
    EXPECT_EQ(medium.stats().collision_drops, 3u);
  }
}

// ---------------------------------------------------------------------
// 4. Airtime grows with payload.
// ---------------------------------------------------------------------

TEST(Airtime, GrowsStrictlyWithPayload) {
  for (const char* model : {"unit-disk", "log-distance"}) {
    ChannelParams cp;
    cp.model = model;
    ChannelModelPtr ch = make_channel_model(cp);
    // 1 Mbps so every step is at least a few of the scheduler's
    // microsecond ticks (airtime is non-strict only below tick size).
    Duration prev = ch->airtime(0, 1e6);
    for (size_t bytes : {1u, 34u, 100u, 1024u, 1500u, 65535u}) {
      Duration d = ch->airtime(bytes, 1e6);
      EXPECT_GT(d.us, prev.us) << model << " bytes=" << bytes;
      prev = d;
    }
  }
  // The reference keeps the historic linear formula exactly…
  ChannelParams ud;
  EXPECT_EQ(make_channel_model(ud)->airtime(125, 1e6).us, 1000);
  // …and the log-distance model charges its 192 us PHY preamble on top.
  ChannelParams ld;
  ld.model = "log-distance";
  EXPECT_EQ(make_channel_model(ld)->airtime(125, 1e6).us, 1192);
}

// ---------------------------------------------------------------------
// Grid vs brute force under the log-distance channel: the keyed per-link
// draws make delivery outcomes independent of the spatial index.
// ---------------------------------------------------------------------

class LogDistanceEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LogDistanceEquivalence, GridMatchesBruteForceExactly) {
  const uint64_t seed = GetParam();
  // Channel parameters drawn once, shared by both worlds.
  common::Rng cfg(common::derive_seed(seed, 77));
  ChannelParams cp;
  cp.model = "log-distance";
  cp.path_loss_exponent = cfg.uniform(2.0, 5.0);
  cp.shadowing_sigma_db = cfg.chance(0.5) ? cfg.uniform(1.0, 8.0) : 0.0;
  cp.softness_db = cfg.chance(0.5) ? cfg.uniform(0.5, 4.0) : 0.0;
  cp.link_seed = common::derive_seed(seed, 78);

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

INSTANTIATE_TEST_SUITE_P(Seeds, LogDistanceEquivalence,
                         ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------
// Grid vs brute force with mixed-range radios: per-transmission coverage
// in carrier sense and collisions, and directional neighbor queries,
// against the all-node oracle, under both channel models.
// ---------------------------------------------------------------------

class HeteroEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HeteroEquivalence, GridMatchesBruteForceExactly) {
  const uint64_t seed = GetParam();
  for (bool log_distance : {false, true}) {
    ChannelParams cp;
    std::optional<ChannelParams> channel;
    if (log_distance) {
      common::Rng cfg(common::derive_seed(seed, 79));
      cp.model = "log-distance";
      cp.path_loss_exponent = cfg.uniform(2.0, 5.0);
      cp.shadowing_sigma_db = cfg.chance(0.5) ? cfg.uniform(1.0, 8.0) : 0.0;
      cp.link_seed = common::derive_seed(seed, 80);
      channel = cp;
    }

    World grid, brute;
    build_world(grid, seed, /*brute=*/false,
                channel ? &*channel : nullptr, /*hetero_radios=*/true);
    build_world(brute, seed, /*brute=*/true,
                channel ? &*channel : nullptr, /*hetero_radios=*/true);
    grid.sched.run();
    brute.sched.run();

    ASSERT_EQ(grid.log.size(), brute.log.size()) << "logdist=" << log_distance;
    for (size_t i = 0; i < grid.log.size(); ++i) {
      SCOPED_TRACE(i);
      EXPECT_EQ(grid.log[i], brute.log[i]) << "logdist=" << log_distance;
    }
    EXPECT_EQ(world_hash(grid), world_hash(brute));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeteroEquivalence,
                         ::testing::Range<uint64_t>(1, 9));

// ---------------------------------------------------------------------
// Shadowing is quasi-static per link, not per-frame fast fading.
// ---------------------------------------------------------------------

TEST(LogDistanceChannel, ShadowingIsStaticPerLink) {
  // With a hard reception curve (softness 0), zero ambient loss and a
  // large shadowing sigma, each link's fate is decided entirely by its
  // one shadowing value: every frame between the same pair must share
  // that fate. Across many link seeds both fates must occur (the
  // receiver sits slightly beyond the nominal range, so the sign of the
  // shadow decides).
  int all_or_nothing = 0, delivered_links = 0;
  const int kFrames = 20;
  for (uint64_t link_seed = 1; link_seed <= 24; ++link_seed) {
    Scheduler sched;
    Medium::Params mp;
    mp.range_m = 60.0;
    mp.loss_rate = 0.0;
    mp.channel.model = "log-distance";
    mp.channel.shadowing_sigma_db = 8.0;
    mp.channel.softness_db = 0.0;
    mp.channel.link_seed = link_seed;
    Medium medium(sched, mp, common::Rng(1));

    StationaryMobility sender_pos({0.0, 0.0});
    StationaryMobility receiver_pos({62.0, 0.0});
    int received = 0;
    medium.add_node(&sender_pos, nullptr);
    medium.add_node(&receiver_pos, [&](const FramePtr&, NodeId) {
      ++received;
    });

    for (int i = 0; i < kFrames; ++i) {
      sched.schedule_at(TimePoint{i * 1'000'000}, [&medium] {
        auto f = std::make_shared<Frame>();
        f->sender = 0;
        f->payload = common::Bytes(100, 0x7);
        f->kind = "shadow";
        medium.transmit(f);
      });
    }
    sched.run();

    if (received == 0 || received == kFrames) ++all_or_nothing;
    if (received == kFrames) ++delivered_links;
  }
  EXPECT_EQ(all_or_nothing, 24);  // no per-frame refading
  EXPECT_GT(delivered_links, 0);  // some links shadow open...
  EXPECT_LT(delivered_links, 24); // ...and some shadow closed
}

// ---------------------------------------------------------------------
// Mixed-range radios (Medium::set_node_range_factor).
// ---------------------------------------------------------------------

TEST(HeteroRadios, RangeFactorsAreDirectionalAndDeterministic) {
  Scheduler sched;
  Medium::Params mp;
  mp.range_m = 60.0;
  mp.loss_rate = 0.0;
  Medium medium(sched, mp, common::Rng(1));

  StationaryMobility a({0.0, 0.0});
  StationaryMobility b({40.0, 0.0});
  int b_received = 0;
  medium.add_node(&a, nullptr);
  medium.add_node(&b, [&](const FramePtr&, NodeId) { ++b_received; });

  // Halve a's radio: 30 m reaches nobody at 40 m, while b still hears
  // 60 m — in_range and the neighbor/degree queries turn directional.
  medium.set_node_range_factor(0, 0.5);
  EXPECT_DOUBLE_EQ(medium.range_of(0), 30.0);
  EXPECT_FALSE(medium.in_range(0, 1));
  EXPECT_TRUE(medium.in_range(1, 0));
  EXPECT_EQ(medium.degree_of(0), 0u);
  EXPECT_EQ(medium.degree_of(1), 1u);
  EXPECT_TRUE(medium.neighbors_of(0).empty());

  // And delivery honors the sender's scaled range.
  auto f = std::make_shared<Frame>();
  f->sender = 0;
  f->payload = common::Bytes(10, 0x1);
  f->kind = "short";
  medium.transmit(f);
  sched.run();
  EXPECT_EQ(b_received, 0);

  medium.set_node_range_factor(0, 1.0);
  auto g = std::make_shared<Frame>();
  g->sender = 0;
  g->payload = common::Bytes(10, 0x2);
  g->kind = "full";
  medium.transmit(g);
  sched.run();
  EXPECT_EQ(b_received, 1);

  EXPECT_THROW(medium.set_node_range_factor(0, 0.0), std::invalid_argument);
}

// ---------------------------------------------------------------------
// Model registry.
// ---------------------------------------------------------------------

TEST(ChannelRegistry, KnownModelsAndErrors) {
  EXPECT_EQ(channel_model_names(),
            (std::vector<std::string>{"log-distance", "unit-disk"}));
  ChannelParams cp;
  cp.model = "free-space-nonsense";
  EXPECT_THROW(make_channel_model(cp), std::invalid_argument);
  EXPECT_TRUE(make_channel_model(ChannelParams{})->deterministic_reference());
}

}  // namespace
}  // namespace dapes::sim

// ---------------------------------------------------------------------
// Log-distance sweep determinism: bit-identical results for any --jobs
// value.
// ---------------------------------------------------------------------

namespace dapes::harness {
namespace {

TEST(LossSweepFamily, JobsOneAndEightBitIdentical) {
  SweepSpec spec;
  spec.title = "log-distance jobs identity";
  spec.base.files = 1;
  spec.base.file_size_bytes = 4 * 1024;
  spec.base.sim_limit_s = 20.0;
  spec.base.seed = 42;
  spec.trials = 2;
  spec.axis.label = "alpha";
  spec.axis.values = {2.5, 4.0};
  spec.axis.apply = [](ScenarioParams& p, double x) {
    p.channel.path_loss_exponent = x;
  };
  spec.series.push_back({"logdist", ProtocolNames::kDapes,
                         [](ScenarioParams& p) {
                           p.channel.model = "log-distance";
                           p.channel.shadowing_sigma_db = 5.0;
                         }});
  spec.series.push_back({"hetero", ProtocolNames::kDapes,
                         [](ScenarioParams& p) {
                           p.channel.model = "log-distance";
                           p.hetero_range_fraction = 0.5;
                         }});
  spec.metrics = {download_time_metric(), transmissions_k_metric(),
                  completion_metric()};

  SweepResult serial = run_sweep(spec, TrialRunner(1));
  SweepResult parallel = run_sweep(spec, TrialRunner(8));
  ASSERT_EQ(serial.values.size(), parallel.values.size());
  for (size_t m = 0; m < serial.values.size(); ++m) {
    for (size_t s = 0; s < serial.values[m].size(); ++s) {
      for (size_t x = 0; x < serial.values[m][s].size(); ++x) {
        // Exact double equality: the engine's contract is bit-identity,
        // not tolerance.
        EXPECT_EQ(serial.values[m][s][x], parallel.values[m][s][x])
            << "metric=" << m << " series=" << s << " x=" << x;
      }
    }
  }
}

}  // namespace
}  // namespace dapes::harness
