/// @file
/// Pluggable channel/PHY models for the wireless medium.
///
/// The paper's evaluation runs on an idealized unit-disk channel (binary
/// range check + independent Bernoulli loss). That model is retained,
/// bit-for-bit, as the deterministic reference; this layer makes the
/// channel a plug point so scenario families can also run under
/// log-distance path loss with optional log-normal shadowing, a
/// probabilistic reception curve, an SIR-based capture rule, and an
/// airtime model with a fixed PHY preamble — plus a composable stack of
/// second-round realism stages on top of the log-distance base
/// (DESIGN.md "Channel realism round two"):
///   * Gilbert-Elliott bursty erasures: a two-state Markov erasure
///     process per unordered link whose state at any time is a pure
///     function of (link_seed, pair, time) — see `GilbertElliott`,
///   * Rayleigh/Rician fast fading per (link, transmission) with a
///     K-factor knob — see `fading_gain_db`,
///   * spatially correlated shadowing from a deterministic shared
///     obstacle field sampled at link midpoints — see `ShadowField`,
///   * SIR-adaptive bitrate selection feeding the existing airtime
///     path — see `ChannelModel::select_rate_bps`.
/// `sim::Medium` routes every delivery, carrier-sense and collision
/// decision through the installed model; see DESIGN.md "Channel & PHY
/// models" for the invariants (deterministic coverage cutoff, keyed
/// per-link draws, no mutable model state) that keep the spatial grid,
/// the brute-force reference and any `--jobs` value bit-identical.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/time.hpp"

namespace dapes::sim {

using common::Duration;

/// Configuration for `make_channel_model`. One flat parameter set serves
/// every model; each model documents which fields it reads. The struct is
/// part of `Medium::Params` (and of the harness `ScenarioParams`), so
/// sweep axes can vary any field per trial. Every field added after the
/// paper baseline defaults to "off": with an untouched ChannelParams the
/// medium is bit-identical to the seed tree (the defaults-are-inert
/// regression in tests/test_harness.cpp pins this).
struct ChannelParams {
  /// Registry name of the model: "unit-disk" (the deterministic paper
  /// reference, the default) or "log-distance". See
  /// `channel_model_names()`.
  std::string model = "unit-disk";

  /// Unit-disk capture rule: a frame survives an overlapping interferer
  /// when its sender is at most this fraction of the interferer's
  /// distance from the receiver (power advantage ~1/ratio^2). 0 disables
  /// capture (any overlap kills both frames). Read by "unit-disk" only.
  double capture_ratio = 0.7;

  /// Log-distance path-loss exponent (alpha): free space is 2, typical
  /// outdoor 2.7-4, obstructed indoor up to 6. Read by "log-distance".
  double path_loss_exponent = 3.0;

  /// Log-normal shadowing standard deviation in dB; 0 disables it.
  /// With `shadowing_corr_m == 0` shadowing is quasi-static per link:
  /// one N(0, sigma) value per unordered node pair, fixed for the whole
  /// trial (drawn from a stream keyed by the pair, not by the frame).
  /// With a positive correlation length the same sigma scales the
  /// shared obstacle field instead (see `ShadowField`). Read by
  /// "log-distance".
  double shadowing_sigma_db = 0.0;

  /// Correlation length (meters) of the spatially correlated shadowing
  /// field: 0 (the default) keeps the independent per-pair draw; > 0
  /// replaces it with a deterministic shared obstacle field sampled at
  /// the link midpoint, so nearby links shadow together and the
  /// covariance decays with midpoint distance. Read by "log-distance"
  /// when `shadowing_sigma_db > 0`.
  double shadowing_corr_m = 0.0;

  /// Width of the probabilistic reception curve in dB: reception
  /// probability is logistic(margin / softness). 0 makes reception a
  /// hard threshold at the nominal range. Read by "log-distance".
  double softness_db = 2.0;

  /// SIR advantage (dB) a frame needs over an interferer for
  /// physical-layer capture. Read by "log-distance".
  double capture_threshold_db = 6.0;

  /// Fixed PHY preamble added to every frame's airtime (802.11b long
  /// PLCP preamble is 192 us). Read by "log-distance".
  double preamble_us = 192.0;

  // --- Gilbert-Elliott bursty erasures (read by "log-distance") ------

  /// Stationary fraction of time an unordered link spends in the
  /// Gilbert-Elliott bad state; 0 (the default) disables the burst
  /// stage entirely (no draws, no state queries). Must stay below 1.
  double ge_bad_fraction = 0.0;

  /// Mean sojourn time in the bad state, milliseconds — the expected
  /// burst length. The good-state rate follows from stationarity.
  double ge_mean_burst_ms = 200.0;

  /// Erasure probability applied on top of the reception curve while
  /// the link is in the bad state (1 = the classic hard erasure burst).
  double ge_bad_loss = 1.0;

  /// Erasure probability while the link is in the good state.
  double ge_good_loss = 0.0;

  /// Quantization step of the burst process, milliseconds: link state
  /// is a pure function of the slot index floor(t / slot), evolved with
  /// the closed-form two-state transition probabilities for one slot of
  /// elapsed time. Smaller slots track the continuous chain more
  /// closely at slightly higher per-delivery cost.
  double ge_slot_ms = 10.0;

  // --- fast fading (read by "log-distance") --------------------------

  /// Fast-fading stage applied per (link, transmission) on top of the
  /// log-distance margin: "none" (default), "rayleigh" (no line of
  /// sight), or "rician" (line of sight plus scatter, strength set by
  /// `rician_k`). Unknown names make `make_channel_model` throw.
  std::string fading = "none";

  /// Rician K-factor (linear ratio of line-of-sight to scattered
  /// power). K -> 0 degenerates to Rayleigh, K -> infinity to no
  /// fading. Read when `fading == "rician"`.
  double rician_k = 4.0;

  // --- SIR-adaptive bitrate (read by "log-distance") -----------------

  /// Enable SIR-adaptive bitrate selection: at transmit time the sender
  /// estimates its worst-case SIR at the nominal-range edge from the
  /// in-flight interferers audible at its position and picks the
  /// fastest rate tier whose SIR requirement is met (halving the base
  /// rate per tier). Off by default; the selected rate never exceeds
  /// the base rate.
  bool adaptive_rate = false;

  /// Number of rate tiers (base, base/2, ... base/2^(tiers-1)). At
  /// least 1; tier count 1 pins the base rate regardless of SIR.
  int rate_tiers = 4;

  /// Estimated SIR (dB) required to run at the full base rate.
  double rate_sir_full_db = 10.0;

  /// SIR requirement relaxed per tier step-down (each halving of the
  /// bitrate buys this much robustness, dB).
  double rate_step_db = 5.0;

  /// Base seed for the keyed per-link reception draws of the
  /// non-reference models. The harness (`Topology`) always derives it
  /// from the trial seed before the medium is built, so concurrent
  /// trials never share a stream; code constructing a `Medium` directly
  /// with a non-reference model should set it likewise (0 is still
  /// deterministic, but identical across every trial that leaves it
  /// unset — the foot-gun tests/test_channel_burst.cpp pins the
  /// harness against).
  uint64_t link_seed = 0;
};

/// Everything a channel model may condition one reception decision on.
/// Filled by the medium per (transmission, receiver); every field is a
/// pure function of the transmission's start state, so the decision is
/// independent of delivery enumeration order and of the spatial index.
struct RxContext {
  double distance_m = 0.0;   ///< sender-receiver distance at start time
  double tx_range_m = 0.0;   ///< sender's nominal radio range
  double loss_rate = 0.0;    ///< medium's distance-independent loss rate
  uint32_t sender = 0;       ///< transmitting node id
  uint32_t receiver = 0;     ///< receiving node id
  uint64_t tx_id = 0;        ///< transmission id (per-frame key)
  double time_s = 0.0;       ///< transmission start time, seconds
  double mid_x = 0.0;        ///< link midpoint x (obstacle-field sample)
  double mid_y = 0.0;        ///< link midpoint y (obstacle-field sample)
};

/// Deterministic two-state Markov (Gilbert-Elliott) erasure process per
/// unordered link. The state at time t is a *pure function* of
/// (link_seed, pair, t) — no mutable chain state — computed by anchoring
/// a block of `kBlockSlots` quantized slots on a stationary draw and
/// evolving slot-by-slot with the closed-form two-state transition
/// probabilities for one slot of elapsed time:
///
///   p_enter_bad = pi * (1 - e^(-(lambda+mu) tau))
///   p_stay_bad  = pi + (1 - pi) * e^(-(lambda+mu) tau)
///
/// where pi is the stationary bad fraction, mu = 1/mean_burst the
/// bad-exit rate, lambda = mu*pi/(1-pi) the stationarity-matching entry
/// rate and tau the slot length. Every uniform comes from a keyed
/// substream of (link_seed, pair, block), so queries are independent of
/// evaluation order — the discipline that keeps grid-vs-brute and every
/// `--jobs` value bit-identical. The
/// statistical-property suite (tests/test_channel_burst.cpp) checks the
/// empirical burst-length and stationary-occupancy distributions against
/// these closed forms.
class GilbertElliott {
 public:
  /// Slots per anchor block: the per-query transition walk is bounded by
  /// this, and a block boundary restarts the chain from its stationary
  /// distribution (exact marginals; bursts spanning a boundary are
  /// split, a negligible truncation for blocks much longer than a
  /// burst).
  static constexpr int kBlockSlots = 32;

  /// Disabled process (never queried).
  GilbertElliott() = default;

  /// Derive the per-slot chain from @p p (the ge_* fields + link_seed).
  explicit GilbertElliott(const ChannelParams& p);

  /// True when the burst stage is active (ge_bad_fraction > 0).
  bool enabled() const { return enabled_; }

  /// Link state at @p time_s for the unordered pair {a, b}: true = bad.
  /// Pure function of the constructor parameters and the arguments.
  bool bad_at(uint32_t a, uint32_t b, double time_s) const;

  /// Erasure probability applied in the given state.
  double erasure(bool bad) const { return bad ? bad_loss_ : good_loss_; }

  /// Stationary probability of the bad state (closed form, what the
  /// empirical occupancy must converge to).
  double stationary_bad() const { return pi_; }

  /// Per-slot P(bad -> bad) (closed form; burst lengths in slots are
  /// geometric with mean 1/(1 - p_stay_bad)).
  double p_stay_bad() const { return p_bb_; }

  /// Per-slot P(good -> bad) (closed form).
  double p_enter_bad() const { return p_gb_; }

  /// Quantization slot length, seconds.
  double slot_s() const { return slot_s_; }

 private:
  bool enabled_ = false;
  double pi_ = 0.0;
  double p_bb_ = 0.0;
  double p_gb_ = 0.0;
  double slot_s_ = 0.01;
  double bad_loss_ = 1.0;
  double good_loss_ = 0.0;
  uint64_t root_ = 0;  ///< link_seed under the burst stream-family tag
};

/// Deterministic spatially correlated shadowing field — a seed-keyed
/// Gaussian random field standing in for a shared obstacle map. Built
/// once per trial (from the channel's link_seed), immutable afterwards;
/// `sample_db` is a pure function, so nearby links sampled at their
/// midpoints shadow together and the covariance between two sample
/// points decays as exp(-d^2 / (2 corr^2)) with their distance d. The
/// classic sum-of-random-cosines spectral construction: harmonics with
/// N(0, 1/corr^2) wave vectors and uniform phases.
class ShadowField {
 public:
  /// Disabled field (never sampled).
  ShadowField() = default;

  /// Build a field with marginal standard deviation @p sigma_db and
  /// correlation length @p corr_m from keyed substreams of @p seed.
  ShadowField(uint64_t seed, double sigma_db, double corr_m);

  /// True when the field is active (sigma and correlation length > 0).
  bool enabled() const { return !harmonics_.empty(); }

  /// Shadowing value (dB, ~N(0, sigma^2)) at a point. Pure function.
  double sample_db(double x, double y) const;

 private:
  struct Harmonic {
    double kx, ky, phase;
  };
  std::vector<Harmonic> harmonics_;
  double amplitude_ = 0.0;
};

/// One Rayleigh/Rician power fading gain in dB, normalized to unit mean
/// power: the envelope-squared of a complex Gaussian with a line-of-sight
/// component of power K/(K+1) and scattered power 1/(K+1). @p k_factor 0
/// is Rayleigh (exponential power, mean 1); K -> infinity degenerates to
/// 0 dB (no fading). Consumes exactly two `gaussian()` draws (four
/// uniforms) from @p rng, so the stream position after a call is
/// deterministic. The moment checks in tests/test_channel_burst.cpp pin
/// the distribution against the closed-form mean and variance.
double fading_gain_db(common::Rng& rng, double k_factor);

/// One channel/PHY model. Implementations are immutable after
/// construction and therefore safe to share across concurrent trials.
///
/// The contract that keeps outcomes independent of the medium's spatial
/// index and of delivery enumeration order:
///  - `coverage_m` is a deterministic hard cutoff: beyond it the model
///    must report reception probability exactly 0 and the medium treats
///    the transmission as inaudible (carrier sense, collision marking).
///  - Models with `deterministic_reference() == false` must make every
///    stochastic choice from the per-link `Rng` handed to `receives`
///    (keyed by (link_seed, transmission, receiver)) or from keyed
///    substreams derived from the `RxContext`, never from shared or
///    mutable state, so draws are independent of the order receivers
///    are visited.
class ChannelModel {
 public:
  virtual ~ChannelModel() = default;

  /// Registry name ("unit-disk", "log-distance").
  virtual const std::string& name() const = 0;

  /// Hard audibility cutoff (meters) for a transmitter whose nominal
  /// radio range is @p tx_range_m. Beyond this distance the transmission
  /// cannot be received, carrier-sensed, or collide with anything.
  /// Monotone in @p tx_range_m.
  virtual double coverage_m(double tx_range_m) const = 0;

  /// Time a frame of @p on_air_bytes (payload + MAC overhead) occupies
  /// the channel at @p data_rate_bps. Strictly increasing in the byte
  /// count.
  virtual Duration airtime(size_t on_air_bytes, double data_rate_bps) const = 0;

  /// Probability that a frame from a transmitter of nominal range
  /// @p tx_range_m is decodable at @p distance_m, before collisions,
  /// shadowing and the medium's independent loss rate. Deterministic and
  /// non-increasing in @p distance_m; exactly 0 beyond
  /// `coverage_m(tx_range_m)`.
  virtual double reception_probability(double distance_m,
                                       double tx_range_m) const = 0;

  /// Decide whether a non-collided frame is received. @p rx carries the
  /// link geometry and keys (distance, nominal range, ambient loss rate,
  /// endpoint ids, transmission id, start time, link midpoint).
  /// @p link_rng is a stream keyed by the (unordered) node pair and
  /// re-seeded identically for every frame between them, so draws from
  /// it — independent per-pair shadowing — are *quasi-static per link*
  /// across a trial. @p frame_rng is keyed by (transmission, receiver):
  /// fresh randomness per frame (fast fading and the reception draw,
  /// folding in the medium's distance-independent Bernoulli loss). For
  /// the deterministic reference both parameters alias the medium's
  /// shared sequential stream.
  virtual bool receives(const RxContext& rx, common::Rng& link_rng,
                        common::Rng& frame_rng) const = 0;

  /// Bursty-erasure state of the link described by @p rx: -1 when the
  /// model runs no burst process (the default), else 0 (good) / 1 (bad).
  /// Pure query — no draws are consumed — used by the medium's
  /// `channel.state` trace event.
  virtual int link_state(const RxContext& rx) const {
    (void)rx;
    return -1;
  }

  /// Physical-layer capture: does a frame whose sender (nominal range
  /// @p own_range_m) is @p own_distance_m from the receiver survive an
  /// overlapping interferer (range @p interferer_range_m) at
  /// @p interferer_distance_m? Must be a pure per-interferer predicate —
  /// the medium folds it over all interferers, so order cannot matter.
  virtual bool captured(double own_distance_m, double own_range_m,
                        double interferer_distance_m,
                        double interferer_range_m) const = 0;

  /// True when the model performs SIR-adaptive bitrate selection; the
  /// medium then evaluates the sender's SIR estimate at transmit time
  /// and charges airtime at `select_rate_bps` instead of the base rate.
  virtual bool adaptive_rate() const { return false; }

  /// Mean link margin (dB) at @p distance_m from a transmitter of
  /// nominal range @p tx_range_m: the rate-adaptation signal/interference
  /// strength proxy. The default is the unit-disk step (0 dB in range,
  /// -infinity beyond), matching the binary connectivity rule.
  virtual double signal_margin_db(double distance_m,
                                  double tx_range_m) const;

  /// Bitrate (bps) to charge a transmission given the sender's estimated
  /// SIR at its nominal-range edge. Never exceeds @p base_rate_bps; the
  /// default pins the base rate.
  virtual double select_rate_bps(double base_rate_bps, double sir_db) const {
    (void)sir_db;
    return base_rate_bps;
  }

  /// True for the unit-disk reference: reception draws consume the
  /// medium's shared sequential RNG stream in receiver order, preserving
  /// bit-identity with the pre-channel-layer medium. All other models
  /// use keyed per-link streams.
  virtual bool deterministic_reference() const { return false; }
};

/// Shared immutable handle; one instance may serve many trials.
using ChannelModelPtr = std::shared_ptr<const ChannelModel>;

/// Build the model named by `params.model`. Throws std::invalid_argument
/// on an unknown model or fading name (listing the registered ones) and
/// on out-of-range stack parameters (ge_bad_fraction >= 1,
/// rate_tiers < 1).
ChannelModelPtr make_channel_model(const ChannelParams& params);

/// Names accepted by `make_channel_model`, sorted.
std::vector<std::string> channel_model_names();

/// Fading stage names accepted in `ChannelParams::fading`, sorted.
std::vector<std::string> channel_fading_names();

}  // namespace dapes::sim
