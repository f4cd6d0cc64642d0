// Shared randomized-world fixture for the medium equivalence suites
// (tests/test_medium_equivalence.cpp and tests/test_channel_models.cpp).
//
// build_world constructs a deterministic scripted world — node mix,
// medium parameters, traffic bursts, connectivity/carrier-sense queries —
// whose every observable lands in World::log, so two worlds can be
// diffed verbatim (grid vs brute force) or hashed against goldens.
//
// DO NOT change the cfg draw order, the traffic script, or the log
// formats here: the golden-hash suite in test_channel_models.cpp pins
// these exact worlds (seeds 1-12, default channel, no hetero radios) to
// hashes captured from the tree *before* the channel layer existed —
// that is the unit-disk bit-identity guarantee. Widening coverage is
// fine through the `channel` / `hetero_radios` parameters, which leave
// the pinned configuration byte-identical.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sim/medium.hpp"
#include "sim/mobility.hpp"

namespace dapes::sim::testworld {

struct World {
  Scheduler sched;
  std::vector<std::unique_ptr<MobilityModel>> mobility;
  std::vector<std::shared_ptr<MobilityModel>> anchors;
  std::unique_ptr<Medium> medium;
  /// Chronological observation log: deliveries, completion reports and
  /// query answers, formatted so two worlds can be diffed verbatim.
  std::vector<std::string> log;
};

/// Deterministic world construction: every random choice comes from
/// `seed`; `brute` flips the medium implementation only. `channel`
/// (optional) overrides the channel model while preserving the drawn
/// capture ratio; `hetero_radios` puts every third node on a half-range
/// radio (index arithmetic, no draws). Transmissions and queries land
/// uniformly in [0, `traffic_window`); the 20 s default is the window
/// the pinned worlds were captured with, and a few milliseconds packs
/// dozens of frames onto the air at once.
inline void build_world(World& w, uint64_t seed, bool brute,
                        const ChannelParams* channel = nullptr,
                        bool hetero_radios = false,
                        Duration traffic_window = Duration::seconds(20)) {
  common::Rng cfg(seed);  // consumed identically by both worlds

  Medium::Params mp;
  mp.range_m = cfg.uniform(15.0, 90.0);
  mp.loss_rate = std::vector<double>{0.0, 0.1, 0.5}[cfg.next_below(3)];
  mp.channel.capture_ratio = cfg.chance(0.5) ? 0.7 : 0.0;
  mp.brute_force = brute;
  if (channel != nullptr) {
    double capture_ratio = mp.channel.capture_ratio;
    mp.channel = *channel;
    mp.channel.capture_ratio = capture_ratio;
  }
  const double field_m = cfg.uniform(80.0, 400.0);
  const Field field{field_m, field_m};
  const size_t n = 5 + cfg.next_below(40);

  w.medium = std::make_unique<Medium>(
      w.sched, mp, common::Rng(common::derive_seed(seed, 1)));

  for (size_t i = 0; i < n; ++i) {
    const Vec2 start{cfg.uniform(0.0, field_m), cfg.uniform(0.0, field_m)};
    common::Rng node_rng(common::derive_seed(seed, 100 + i));
    switch (cfg.next_below(4)) {
      case 0:
        w.mobility.push_back(std::make_unique<StationaryMobility>(start));
        break;
      case 1:
        w.mobility.push_back(
            std::make_unique<RandomDirectionMobility>(start, field, node_rng));
        break;
      case 2: {
        RandomWaypointMobility::Params p;
        p.field = field;
        p.pause = Duration::seconds(cfg.uniform(0.0, 5.0));
        w.mobility.push_back(
            std::make_unique<RandomWaypointMobility>(start, p, node_rng));
        break;
      }
      default: {
        if (w.anchors.empty() || cfg.chance(0.6)) {
          RandomWaypointMobility::Params p;
          p.field = field;
          w.anchors.push_back(std::make_shared<RandomWaypointMobility>(
              start, p,
              common::Rng(common::derive_seed(seed, 5000 + w.anchors.size()))));
        }
        const Vec2 offset{cfg.uniform(-30.0, 30.0), cfg.uniform(-30.0, 30.0)};
        w.mobility.push_back(std::make_unique<GroupMobility>(
            w.anchors.back(), offset, field));
        break;
      }
    }
    w.medium->add_node(w.mobility.back().get(),
                       [&w, i](const FramePtr& f, NodeId receiver) {
                         w.log.push_back(
                             "rx t=" + std::to_string(w.sched.now().us) +
                             " from=" + std::to_string(f->sender) + " at=" +
                             std::to_string(receiver));
                       });
  }

  if (hetero_radios) {
    for (size_t i = 0; i < n; i += 3) {
      w.medium->set_node_range_factor(static_cast<NodeId>(i), 0.5);
    }
  }

  // Scripted traffic: bursts of transmissions, many deliberately
  // overlapping (several frames inside the same microsecond-scale
  // window) so collision marking and capture get exercised.
  const auto window_us = static_cast<uint64_t>(traffic_window.us);
  const int transmissions = 80;
  for (int t = 0; t < transmissions; ++t) {
    const int64_t at_us = static_cast<int64_t>(cfg.next_below(window_us));
    const NodeId sender = static_cast<NodeId>(cfg.next_below(n));
    const size_t size = 50 + cfg.next_below(1500);
    w.sched.schedule_at(TimePoint{at_us}, [&w, sender, size, t] {
      auto f = std::make_shared<Frame>();
      f->sender = sender;
      f->payload = common::Bytes(size, static_cast<uint8_t>(t));
      f->kind = "eq";
      w.medium->transmit(f, [&w, t](const Medium::TxReport& r) {
        w.log.push_back("report tx=" + std::to_string(t) +
                        " rcv=" + std::to_string(r.receivers) +
                        " col=" + std::to_string(r.collided) +
                        " lost=" + std::to_string(r.lost) +
                        " del=" + std::to_string(r.delivered));
      });
    });
  }

  // Interleaved connectivity and carrier-sense queries.
  const int queries = 120;
  for (int q = 0; q < queries; ++q) {
    const int64_t at_us = static_cast<int64_t>(cfg.next_below(window_us));
    const NodeId node = static_cast<NodeId>(cfg.next_below(n));
    w.sched.schedule_at(TimePoint{at_us}, [&w, node] {
      std::string line = "nbr node=" + std::to_string(node) + " [";
      for (NodeId id : w.medium->neighbors_of(node)) {
        line += std::to_string(id) + ",";
      }
      line += "] deg=" + std::to_string(w.medium->degree_of(node)) +
              " busy=" + std::to_string(w.medium->busy_for(node)) +
              " until=" + std::to_string(w.medium->busy_until(node).us);
      w.log.push_back(line);
    });
  }
}

/// FNV-1a over the chronological log + aggregate stats — the fingerprint
/// the pre-channel-layer goldens were captured with.
inline uint64_t world_hash(const World& w) {
  auto fnv1a = [](uint64_t h, const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ULL;
    }
    h ^= 0xff;
    h *= 1099511628211ULL;
    return h;
  };
  uint64_t h = 14695981039346656037ULL;
  for (const auto& line : w.log) h = fnv1a(h, line);
  const MediumStats& s = w.medium->stats();
  h = fnv1a(h, "tx=" + std::to_string(s.transmissions) +
                   " del=" + std::to_string(s.deliveries) +
                   " loss=" + std::to_string(s.losses) +
                   " cd=" + std::to_string(s.collision_drops) +
                   " cf=" + std::to_string(s.collided_frames) +
                   " bytes=" + std::to_string(s.bytes_sent));
  return h;
}

}  // namespace dapes::sim::testworld
