/// @file
/// Experiment scenarios.
///
/// Reproduces the paper's simulation setup (§VI-B, Fig. 7): a 300 m x 300 m
/// field with 4 stationary repositories and 40 mobile nodes (random
/// direction, 2-10 m/s). 24 nodes (4 stationary + 20 mobile) download one
/// file collection; 10 mobile nodes are pure forwarders and 10 are
/// intermediate DAPES nodes. One designated downloader starts with the
/// full collection (the producer).
///
/// Parameters default to the repository's scaled configuration: packet
/// counts and the radio data rate are both divided by kDefaultScale
/// relative to the paper, which preserves the airtime-to-contact-time
/// ratio that shapes every figure (see EXPERIMENTS.md).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "dapes/peer.hpp"
#include "sim/channel.hpp"
#include "sim/faults.hpp"
#include "trace/record.hpp"

namespace dapes::harness {

/// Scale divisor applied to collection size and radio rate.
inline constexpr size_t kDefaultScale = 8;

/// Mobility model applied to the mobile nodes of a scenario. The paper's
/// Fig. 7 setup uses random direction; the scale.field family also runs
/// random waypoint (with a 2 s pause) and reference-point group mobility
/// (convoys of five nodes sharing an anchor, each within 30 m of it).
enum class MobilityKind {
  kRandomDirection,  ///< paper Fig. 7: random direction, 2-10 m/s
  kRandomWaypoint,   ///< random waypoint with pause
  kGroup,            ///< reference-point group mobility (convoys)
};

/// Every knob of a simulated trial. Trials are a pure function of this
/// struct (including the seed), which is what makes sweeps replayable.
struct ScenarioParams {
  double field_m = 300.0;          ///< square field side (paper Fig. 7)
  int stationary_downloaders = 4;  ///< repositories (Fig. 7 population)
  int mobile_downloaders = 20;     ///< mobile nodes that download
  int pure_forwarders = 10;        ///< §V-A NDN-only relays
  int dapes_intermediates = 10;    ///< §V-B DAPES-aware relays

  /// Mobility model of the mobile nodes.
  MobilityKind mobility = MobilityKind::kRandomDirection;

  double wifi_range_m = 60.0;     ///< radio range (paper: 802.11b)
  /// Radio data rate (paper: 11 Mb/s, divided by the default scale).
  double data_rate_bps = 11e6 / kDefaultScale;
  double loss_rate = 0.10;        ///< uniform frame loss (paper: 10%)

  // --- channel / PHY model (see DESIGN.md "Channel & PHY models") ---
  /// Channel model + parameters; defaults to the paper's unit-disk
  /// reference, under which every sweep is bit-identical to the
  /// pre-channel-layer tree. `link_seed` is derived per trial by the
  /// Topology when left at 0.
  sim::ChannelParams channel;
  /// Mixed-range radios: fraction of nodes (evenly spread across the
  /// population classes, deterministically — no RNG draws) whose radio
  /// range is halved, modeling IoT-class radios next to full WiFi. 0
  /// disables.
  double hetero_range_fraction = 0.0;

  size_t files = 10;  ///< files in the collection (paper default: 10)
  /// File size (paper: 1 MB, divided by the default scale). Packets
  /// carry 1024 payload bytes under packet-digest metadata (§IV-C).
  size_t file_size_bytes = 1024 * 1024 / kDefaultScale;

  /// Peer configuration applied to every downloader.
  core::PeerOptions peer{};

  /// Open-membership fault injection (churn scenarios): Poisson
  /// leave/join churn, crash+restart outages, flash crowds, adversarial
  /// bitmap liars. All defaults off — the empty plan draws nothing, so
  /// the fixed-population paper sweeps stay byte-identical (see
  /// DESIGN.md "Fault injection & open membership").
  sim::FaultParams faults;

  double sim_limit_s = 3000.0;  ///< simulated-time cap per trial
  uint64_t seed = 1;            ///< trial RNG seed
  /// Run the medium's retained all-pairs reference instead of the
  /// spatial grid (equivalence tests, bench_scale's speedup baseline).
  bool brute_force_medium = false;
  /// Per-trial verify-result cache + delivery prewarm (DESIGN.md "Crypto
  /// engine & verify cache"): each delivered Data frame is hashed and
  /// MAC-checked once per broadcast, and every receiver serves its
  /// verify from the cache. The cache is exact, so all trial metrics are
  /// identical on or off; `false` retains the per-receiver scalar verify
  /// path as the reference, which test_verify_cache diffs against.
  bool verify_cache = true;
  /// Structured event tracing (`--trace <sink>[:<path>]`). Disabled by
  /// default (empty sink): no records, no buffers, and the instrumented
  /// hot paths pay one thread-local null check per potential event.
  /// When enabled, the trace is bit-identical for any `--jobs`
  /// value; multi-trial runners suffix the output path per trial/cell so
  /// concurrent trials never share a file.
  trace::TraceConfig trace;
};

/// Outcome of one simulated trial.
struct TrialResult {
  /// Mean time for the downloaders to obtain the full collection
  /// (downloaders that never finish count as sim_limit_s).
  double download_time_s = 0.0;
  /// Fraction of downloaders that completed within the limit.
  double completion_fraction = 0.0;
  /// Total frames put on the air by all nodes.
  uint64_t transmissions = 0;
  /// Frame counts by kind ("ndn-interest", "ndn-data", ...).
  std::unordered_map<std::string, uint64_t> tx_by_kind;
  /// Collisions observed at the medium.
  uint64_t collided_frames = 0;
  /// Peak modeled protocol state across nodes, bytes (Table I).
  size_t peak_state_bytes = 0;
  /// Sum of modeled protocol state across nodes, bytes.
  size_t total_state_bytes = 0;
  /// Scheduler events executed (system-load proxy, see EXPERIMENTS.md).
  uint64_t events_executed = 0;
  /// Real (wall-clock) seconds the trial's run loop took. The only
  /// non-deterministic TrialResult field; reported by bench_scale,
  /// excluded from determinism comparisons.
  double wall_clock_s = 0.0;
  /// Fraction of knowledge-forwarded Interests that brought data back —
  /// reported by the paper as 83% (§VI-D).
  double forward_accuracy = 0.0;
  /// Peak "what is available around me" bookkeeping across nodes, bytes
  /// (bitmaps, RPF state, overheard knowledge — Table I's growing column).
  size_t peak_knowledge_bytes = 0;
  // Modeled system-load proxies derived from events, frames and state;
  // EXPERIMENTS.md documents the formulas (Table I).
  uint64_t context_switches = 0;
  uint64_t system_calls = 0;
  uint64_t page_faults = 0;
};

/// Run one DAPES trial of the Fig. 7 scenario.
TrialResult run_dapes_trial(const ScenarioParams& params);

/// Same topology and workload, but peers run Bithoc (DSDV + scoped HELLO
/// flooding + TCP) — the paper's first IP baseline (Fig. 10).
TrialResult run_bithoc_trial(const ScenarioParams& params);

/// Same topology and workload, but peers run Ekta (DSR + DHT + UDP) —
/// the paper's second IP baseline (Fig. 10).
TrialResult run_ekta_trial(const ScenarioParams& params);

}  // namespace dapes::harness
