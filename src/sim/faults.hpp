/// @file
/// Deterministic fault injection for open-membership swarms.
///
/// The paper's trials (and every sweep but the churn one) run a fixed
/// node population. This layer makes node lifecycle a
/// first-class simulated event instead: a per-trial `FaultPlan` is
/// *compiled* from `FaultParams` knobs before the trial starts — Poisson
/// leave/join churn, crash+restart outages, flash-crowd arrival waves —
/// and then installed into the scheduler as ordinary
/// events that the harness applies (retire/revive on the medium, timer
/// sweep via `Scheduler::cancel_for_node`, peer crash/restart).
///
/// Determinism discipline (the channel layer's keyed-draw pattern):
/// every draw comes from streams derived via `common::derive_seed` from
/// the trial seed and a fixed tag, at compile time — never during the
/// trial, never from the medium's shared stream. The plan is therefore a
/// pure function of (params, population, seed), so any `--jobs` value
/// and grid-vs-brute see the identical fault sequence. With every knob
/// at its default the plan is empty and nothing in the trial changes by
/// a single draw, so the fixed-population paper sweeps stay
/// byte-identical (DESIGN.md "Fault injection & open membership").
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"
#include "sim/scheduler.hpp"

namespace dapes::sim {

using common::TimePoint;

/// Per-trial fault-injection knobs, embedded in `ScenarioParams` the way
/// `ChannelParams` is. All defaults are "off": a default-constructed
/// FaultParams compiles to an empty plan that draws nothing, keeping the
/// paper sweeps byte-identical. Every draw derives from the trial seed.
struct FaultParams {
  /// Per-removable-node Poisson departure rate (Hz). The aggregate rate
  /// scales with the currently removable population, like independent
  /// exponential lifetimes.
  double leave_rate_hz = 0.0;
  /// Fraction of departures that are crash+restart outages (30 s long)
  /// instead of permanent leaves.
  double crash_fraction = 0.0;
  /// Latent peers admitted in one arrival wave (the flash crowd), spread
  /// uniformly over 60-70 s.
  int flash_crowd_size = 0;
  /// Poisson admission rate (Hz) from the remaining latent pool,
  /// starting after FaultPlan::kWarmupS.
  double join_rate_hz = 0.0;
  /// Fraction of the initial non-producer downloaders that lie in their
  /// availability bitmaps (advertise everything, serve nothing).
  double adversarial_fraction = 0.0;
};

/// What a compiled fault event does to its target node.
enum class FaultKind : uint8_t {
  kLeave = 0,  ///< permanent departure
  kCrash,      ///< departure with a scheduled restart
  kRestart,    ///< end of a crash outage
  kJoin,       ///< admission of a latent node
};

/// One compiled lifecycle event.
struct FaultEvent {
  TimePoint at;                ///< when it fires
  FaultKind kind = FaultKind::kLeave;  ///< what happens
  uint32_t target = 0;         ///< the node it happens to
};

/// The compiled, immutable fault schedule of one trial.
class FaultPlan {
 public:
  /// No departures and no Poisson admissions before this time (seconds):
  /// lets discovery bootstrap.
  static constexpr double kWarmupS = 5.0;

  /// The node pools compile() draws from. The harness fills these with
  /// medium node ids after building the fixed population.
  struct Population {
    /// Nodes eligible for leave/crash draws (downloaders except the
    /// producer, plus forwarders; never stationary repos).
    std::vector<uint32_t> removable;
    /// Pre-created latent nodes consumed by flash-crowd and join
    /// events, in order.
    std::vector<uint32_t> latent;
  };

  /// Compile the fault schedule: a deterministic membership walk over
  /// the removable pool (Poisson leaves at `leave_rate_hz *
  /// pool.size()`, crash victims re-entering the pool at restart),
  /// flash-crowd arrivals and Poisson admissions consuming the latent
  /// pool in order. Pure function of its arguments; events come back
  /// sorted by (time, kind, target).
  static FaultPlan compile(const FaultParams& params,
                           const Population& population, double sim_limit_s,
                           uint64_t trial_seed);

  /// Deterministically choose `floor(adversarial_fraction * n)` liars
  /// from @p candidates (keyed shuffle of a copy; result sorted). Static
  /// and population-independent so the harness can flag peers at
  /// construction time, before the plan exists.
  static std::vector<uint32_t> pick_adversaries(
      const FaultParams& params, const std::vector<uint32_t>& candidates,
      uint64_t trial_seed);

  /// The compiled schedule, sorted by time.
  const std::vector<FaultEvent>& events() const { return events_; }

  /// Number of kJoin events — the latent nodes that actually get
  /// admitted (the completion-tracker expectation grows by this).
  size_t admitted_joins() const;

  /// Applies one fired fault event to the trial (harness-provided).
  using ApplyFn = std::function<void(const FaultEvent&)>;

  /// Schedule every compiled event into @p sched (unowned — fault
  /// events must survive their own target's cancellation sweep). Each
  /// firing traces `fault.inject` and then invokes @p apply. Call once,
  /// at setup time.
  void install(Scheduler& sched, ApplyFn apply) const;

 private:
  std::vector<FaultEvent> events_;
};

}  // namespace dapes::sim
