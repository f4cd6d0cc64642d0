#include "harness/topology.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numbers>

namespace dapes::harness {

using core::Collection;
using sim::Duration;
using sim::TimePoint;
using sim::Vec2;

namespace {

/// Payload bytes per collection packet, and the metadata's integrity
/// encoding (§IV-C).
constexpr size_t kPacketSize = 1024;
constexpr core::MetadataFormat kMetadataFormat =
    core::MetadataFormat::kPacketDigest;

/// MobilityKind::kGroup convoys: members per shared anchor, and the
/// largest member offset from it (meters).
constexpr int kGroupSize = 5;
constexpr double kGroupRadiusM = 30.0;

/// hetero.radio: range multiplier of the selected radios (half-range
/// IoT-class radios next to full WiFi).
constexpr double kHeteroRangeFactor = 0.5;

}  // namespace

Topology::Topology(const ScenarioParams& params, uint64_t seed,
                   const std::string& collection_name,
                   const std::string& key_name,
                   const std::string& file_prefix)
    : rng(seed) {
  sim::Medium::Params mp;
  mp.range_m = params.wifi_range_m;
  mp.data_rate_bps = params.data_rate_bps;
  mp.loss_rate = params.loss_rate;
  mp.brute_force = params.brute_force_medium;
  mp.channel = params.channel;
  if (mp.channel.link_seed == 0) {
    // Per-trial stream base for the keyed per-link reception draws of the
    // non-reference channel models (the unit-disk default never draws
    // from it). Derived from the trial seed with a fixed tag so it is
    // independent of execution order, like every other stream.
    mp.channel.link_seed = common::derive_seed(seed, 0x6368616eULL);
    if (mp.channel.link_seed == 0) {
      // SplitMix64 can (one seed in 2^64) output 0 — and 0 is exactly
      // the "shared across every trial" foot-gun this derivation exists
      // to close — so step the tag once more. Still a pure function of
      // the trial seed.
      mp.channel.link_seed = common::derive_seed(seed, 0x6368616fULL);
    }
  }
  medium = std::make_unique<sim::Medium>(sched, mp, rng.fork());

  producer_key = keys.generate_key(key_name, params.seed);
  std::vector<Collection::SyntheticFileInput> files;
  for (size_t i = 0; i < params.files; ++i) {
    files.push_back({file_prefix + std::to_string(i), params.file_size_bytes});
  }
  collection = Collection::create_synthetic(
      ndn::Name(collection_name), std::move(files), kPacketSize,
      kMetadataFormat, producer_key);

  if (params.verify_cache) {
    // One cache per trial, installed two ways: into this (the trial's)
    // thread for the receive path, and into the medium's delivery
    // prewarm so every Data broadcast is hashed/MAC-checked once per
    // frame. The cache is exact; results are identical with the knob off
    // (test_verify_cache diffs them).
    verify_cache = std::make_unique<crypto::VerifyCache>();
    verify_prewarm =
        std::make_unique<ndn::DataVerifyPrewarm>(*verify_cache, keys);
    verify_scope =
        std::make_unique<crypto::VerifyCacheScope>(verify_cache.get());
    medium->set_prewarm(verify_prewarm.get());
  }

  if (params.trace.enabled()) {
    // Installed before any node or route exists so setup-time table
    // events are captured too. The clock reads this trial's scheduler —
    // trace/ has no sim/ dependency, so time is injected.
    sim::Scheduler* clock_sched = &sched;
    tracer = std::make_shared<trace::Tracer>(
        params.trace, [clock_sched] { return clock_sched->now().us; });
    trace_scope = std::make_unique<trace::TrialScope>(tracer.get());
  }
}

Topology::~Topology() {
  if (tracer) {
    try {
      tracer->flush();
    } catch (...) {
      // Destructor fallback only; run_to_completion flushes (and
      // propagates sink errors) on the normal path.
    }
  }
}

sim::MobilityModel* Topology::mobile(const ScenarioParams& params) {
  const sim::Field field{params.field_m, params.field_m};
  switch (params.mobility) {
    case MobilityKind::kRandomDirection: {
      Vec2 start{rng.uniform(0.0, params.field_m),
                 rng.uniform(0.0, params.field_m)};
      mobility.push_back(std::make_unique<sim::RandomDirectionMobility>(
          start, field, rng.fork()));
      break;
    }
    case MobilityKind::kRandomWaypoint: {
      sim::RandomWaypointMobility::Params mp;
      mp.field = field;
      Vec2 start{rng.uniform(0.0, params.field_m),
                 rng.uniform(0.0, params.field_m)};
      mobility.push_back(std::make_unique<sim::RandomWaypointMobility>(
          start, mp, rng.fork()));
      break;
    }
    case MobilityKind::kGroup: {
      if (group_fill_ % kGroupSize == 0) {
        sim::RandomWaypointMobility::Params mp;
        mp.field = field;
        Vec2 start{rng.uniform(0.0, params.field_m),
                   rng.uniform(0.0, params.field_m)};
        group_anchor_ = std::make_shared<sim::RandomWaypointMobility>(
            start, mp, rng.fork());
      }
      ++group_fill_;
      const double angle = rng.uniform(0.0, 2.0 * std::numbers::pi);
      const double radius = rng.uniform(0.0, kGroupRadiusM);
      Vec2 offset{radius * std::cos(angle), radius * std::sin(angle)};
      mobility.push_back(
          std::make_unique<sim::GroupMobility>(group_anchor_, offset, field));
      break;
    }
  }
  return mobility.back().get();
}

sim::MobilityModel* Topology::stationary(const ScenarioParams& params,
                                         int index) {
  const double inset = params.field_m / 4.0;
  const Vec2 positions[4] = {
      {inset, inset},
      {params.field_m - inset, inset},
      {inset, params.field_m - inset},
      {params.field_m - inset, params.field_m - inset}};
  mobility.push_back(
      std::make_unique<sim::StationaryMobility>(positions[index % 4]));
  return mobility.back().get();
}

sim::MobilityModel* Topology::fixed(Vec2 pos) {
  mobility.push_back(std::make_unique<sim::StationaryMobility>(pos));
  return mobility.back().get();
}

sim::MobilityModel* Topology::waypoints(
    std::vector<sim::WaypointMobility::Waypoint> pts) {
  mobility.push_back(std::make_unique<sim::WaypointMobility>(std::move(pts)));
  return mobility.back().get();
}

void apply_hetero_radios(const ScenarioParams& params, sim::Medium& medium) {
  const double fraction =
      std::min(1.0, std::max(0.0, params.hetero_range_fraction));
  if (fraction <= 0.0) return;
  const size_t n = medium.node_count();
  const auto scaled = static_cast<size_t>(std::llround(fraction * n));
  if (scaled == 0) return;
  // Even deterministic spread: node i is selected when the rounded
  // cumulative quota increments at i, which picks exactly `scaled` nodes
  // across the whole id range (and therefore across the population
  // classes, which are registered in contiguous id blocks).
  for (size_t i = 0; i < n; ++i) {
    if ((i + 1) * scaled / n != i * scaled / n) {
      medium.set_node_range_factor(static_cast<sim::NodeId>(i),
                                   kHeteroRangeFactor);
    }
  }
}

double CompletionTracker::mean_time(double limit_s) const {
  // FP addition is not associative, so the summation order fixes the
  // low bits of download_s. Sorted order is the one the fig9b/table1
  // goldens and the benchmark pins were recorded with.
  std::vector<double> sorted = times;
  std::sort(sorted.begin(), sorted.end());
  double sum = 0.0;
  for (double t : sorted) sum += t;
  sum += static_cast<double>(expected - completed) * limit_s;
  return sum / std::max(1, expected);
}

double CompletionTracker::last_time(double limit_s) const {
  if (completed < expected) return limit_s;
  double last = 0.0;
  for (double t : times) last = std::max(last, t);
  return last;
}

TrialResult run_to_completion(const ScenarioParams& params, Topology& topo,
                              CompletionTracker& tracker,
                              const std::function<StateSample()>& sample) {
  TrialResult result;
  const auto wall_start = std::chrono::steady_clock::now();
  const TimePoint limit{static_cast<int64_t>(params.sim_limit_s * 1e6)};
  const Duration chunk = Duration::seconds(5.0);
  TimePoint cursor = TimePoint::zero();
  while (cursor < limit && !tracker.done()) {
    cursor = std::min(TimePoint{cursor.us + chunk.us}, limit);
    topo.sched.run_until(cursor);
    StateSample s = sample();
    result.peak_state_bytes = std::max(result.peak_state_bytes, s.state_bytes);
    result.total_state_bytes = s.state_bytes;
    result.peak_knowledge_bytes =
        std::max(result.peak_knowledge_bytes, s.knowledge_bytes);
  }

  result.download_time_s = tracker.mean_time(params.sim_limit_s);
  result.completion_fraction =
      tracker.expected <= 0
          ? 1.0
          : static_cast<double>(tracker.completed) / tracker.expected;
  result.transmissions = topo.medium->stats().transmissions;
  result.tx_by_kind.insert(topo.medium->stats().tx_by_kind.begin(),
                           topo.medium->stats().tx_by_kind.end());
  result.collided_frames = topo.medium->stats().collided_frames;
  result.events_executed = topo.sched.executed();
  result.wall_clock_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();

  // Modeled system-load proxies (Table I). Coefficients are arbitrary but
  // fixed; the *shape* across scenarios — driven by events, frames and
  // state — is what reproduces the table. See EXPERIMENTS.md.
  const uint64_t frames = result.transmissions;
  const uint64_t events = result.events_executed;
  result.system_calls = 3 * frames + events / 2;
  result.context_switches = frames + events / 8;
  result.page_faults =
      static_cast<uint64_t>(result.peak_state_bytes / 4096) + frames / 64;

  // Flush here (not only in ~Topology) so sink errors propagate to the
  // driver instead of being swallowed by a destructor.
  if (topo.tracer) topo.tracer->flush();
  return result;
}

}  // namespace dapes::harness
