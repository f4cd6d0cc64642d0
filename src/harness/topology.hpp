/// @file
/// Shared trial scaffolding for the protocol drivers.
///
/// Every driver (DAPES, Bithoc, Ekta, the real-world scripts) builds the
/// same world: a seeded Rng, a Scheduler, a Medium, one signed synthetic
/// file collection, and a set of mobility models. This file owns that
/// construction plus the common run-to-completion loop so the drivers only
/// differ in the nodes they place on top.
///
/// RNG draw order matters: Topology forks the medium's stream first, then
/// generates the producer key, then builds the collection, exactly as the
/// pre-refactor per-protocol setups did, so trial results for a given seed
/// are unchanged.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "crypto/keychain.hpp"
#include "crypto/verify_cache.hpp"
#include "harness/scenario.hpp"
#include "ndn/verify_prewarm.hpp"
#include "sim/medium.hpp"
#include "sim/mobility.hpp"
#include "sim/scheduler.hpp"
#include "trace/trace.hpp"

namespace dapes::harness {

/// The world every trial shares: scheduler, medium, collection, mobility.
struct Topology {
  common::Rng rng;        ///< the trial's root RNG stream
  sim::Scheduler sched;   ///< the trial's event loop
  std::unique_ptr<sim::Medium> medium;  ///< the shared broadcast medium
  crypto::KeyChain keys;               ///< trust anchors for all peers
  crypto::PrivateKey producer_key;     ///< signs the shared collection
  std::shared_ptr<core::Collection> collection;  ///< the shared workload
  /// Owned mobility models, one per created node.
  std::vector<std::unique_ptr<sim::MobilityModel>> mobility;
  /// Per-trial verify-result cache (null when params.verify_cache is
  /// off). One instance per trial so `--jobs` fan-out never shares
  /// cache state across concurrent trials.
  std::unique_ptr<crypto::VerifyCache> verify_cache;
  /// Delivery prewarm that fills verify_cache once per Data broadcast.
  /// The medium holds a raw pointer to it (set_prewarm) but only invokes
  /// it while delivering frames, which no destructor does, so the member
  /// order relative to medium is immaterial.
  std::unique_ptr<ndn::DataVerifyPrewarm> verify_prewarm;
  /// Thread-local cache installation for the trial thread. Declared
  /// after verify_cache so it is torn down first.
  std::unique_ptr<crypto::VerifyCacheScope> verify_scope;
  /// The trial's event tracer, built from params.trace when enabled
  /// (null otherwise) and installed into this thread for the topology's
  /// lifetime via trace_scope below.
  std::shared_ptr<trace::Tracer> tracer;
  /// Thread-local tracer installation; declared after tracer so it is
  /// torn down first.
  std::unique_ptr<trace::TrialScope> trace_scope;

  /// Seeds the rng with `seed`, builds the medium from the radio params,
  /// creates the signed synthetic collection named `collection_name`,
  /// and — when params.trace is enabled — builds and installs the trial
  /// tracer.
  Topology(const ScenarioParams& params, uint64_t seed,
           const std::string& collection_name, const std::string& key_name,
           const std::string& file_prefix);

  /// Flushes the tracer if run_to_completion has not already (errors are
  /// swallowed: destructors must not throw).
  ~Topology();

  /// Mobility for one mobile node, per params.mobility: random direction
  /// (the Fig. 7 default), random waypoint, or group (every fifth call
  /// starts a new convoy anchor the following members share).
  /// Started at a uniform position (consumes rng draws; call in node
  /// order — the random-direction path draws exactly what the
  /// pre-grid code drew, so paper-scale trials are unchanged).
  sim::MobilityModel* mobile(const ScenarioParams& params);

  /// Stationary repository position: a regular grid inset from the field
  /// corners, cycling through the four spots.
  sim::MobilityModel* stationary(const ScenarioParams& params, int index);

  /// Stationary node at an explicit position (real-world scripts).
  sim::MobilityModel* fixed(sim::Vec2 pos);

  /// Scripted waypoint mobility (real-world scripts).
  sim::MobilityModel* waypoints(std::vector<sim::WaypointMobility::Waypoint> pts);

 private:
  /// Shared convoy anchors for MobilityKind::kGroup, one per five
  /// mobile() calls.
  std::shared_ptr<sim::MobilityModel> group_anchor_;
  int group_fill_ = 0;
};

/// Completion bookkeeping shared by all drivers. Only the trial thread
/// touches it (completion callbacks run inside the event loop). Every
/// consumer (count, mean, max) is independent of the order downloaders
/// finish in.
struct CompletionTracker {
  int expected = 0;           ///< downloaders that should finish
  int completed = 0;          ///< downloaders that have finished
  std::vector<double> times;  ///< completion times, seconds

  /// Record one downloader finishing at time @p t.
  void record(double t) {
    ++completed;
    times.push_back(t);
  }

  /// Mean completion time with never-finished downloaders counted at the
  /// simulation limit (the Fig. 9/10 metric).
  double mean_time(double limit_s) const;

  /// Latest completion, or the limit if anyone never finished (Table I).
  double last_time(double limit_s) const;

  /// True once every expected downloader finished.
  bool done() const { return completed >= expected; }
};

/// Apply the mixed-range radios to an already-populated
/// medium: an evenly spread `params.hetero_range_fraction` of the
/// registered nodes get their radio range halved. Deterministic —
/// selection is by node index arithmetic, no RNG draws — so enabling it
/// cannot perturb any other stream, and a fraction of 0 is an exact
/// no-op. Call after every node is registered and before traffic starts.
void apply_hetero_radios(const ScenarioParams& params, sim::Medium& medium);

/// Per-sample state snapshot a driver reports back to the run loop.
struct StateSample {
  size_t state_bytes = 0;      ///< total modeled protocol state, bytes
  size_t knowledge_bytes = 0;  ///< availability-knowledge subset, bytes
};

/// Drive the scheduler in 5 s chunks until the limit or full completion,
/// sampling protocol state via `sample` each chunk. Fills every TrialResult
/// field the topology can observe (timing, completion, medium stats, state
/// peaks, events, modeled system-load proxies); driver-specific metrics
/// (e.g. forward_accuracy) are layered on by the caller.
TrialResult run_to_completion(const ScenarioParams& params, Topology& topo,
                              CompletionTracker& tracker,
                              const std::function<StateSample()>& sample);

}  // namespace dapes::harness
