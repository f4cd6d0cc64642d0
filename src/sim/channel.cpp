#include "sim/channel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace dapes::sim {

namespace {

/// Coverage cutoff of the log-distance model, in units of link margin:
/// the probability mass truncated beyond `kCutSigmas` shadowing standard
/// deviations plus `kCutSoftness` reception-curve widths is below ~3e-4
/// per link — negligible next to the modeled loss processes, and the
/// deterministic cutoff is what keeps the spatial grid and the
/// brute-force reference bit-identical (DESIGN.md "Channel & PHY
/// models").
constexpr double kCutSigmas = 4.0;
constexpr double kCutSoftness = 8.0;

/// Extra coverage headroom (dB) when a fast-fading stage is enabled: a
/// constructive Rician/Rayleigh fade can lift a marginal link above the
/// reception threshold, so the deterministic audibility cutoff widens by
/// a fixed allowance (P(gain > 10 dB) < 5e-5 for Rayleigh) to keep the
/// truncated mass negligible.
constexpr double kCutFadingDb = 10.0;

/// Distances below this (meters) clamp before entering log10: a
/// co-located pair would otherwise produce an infinite margin.
constexpr double kMinDistance = 1e-3;

/// Stream-family tag of the burst process's keyed substreams of
/// `link_seed` (see DESIGN.md's determinism discipline): a distinct ASCII
/// tag keeps it statistically independent of the quasi-static shadowing
/// draws.
constexpr uint64_t kBurstTag = 0x62757273ULL;  // "burs"

/// SIR advantage (dB) a frame needs over an interferer for
/// physical-layer capture under the log-distance model.
constexpr double kCaptureThresholdDb = 6.0;

/// Fixed PHY preamble added to every log-distance frame's airtime
/// (802.11b long PLCP preamble).
constexpr double kPreambleUs = 192.0;

/// SIR-adaptive bitrate ladder: tier count (base, base/2, ...
/// base/2^(tiers-1)), the estimated SIR (dB) the full base rate needs,
/// and the SIR requirement relaxed per halving of the bitrate (dB).
constexpr int kRateTiers = 4;
constexpr double kRateSirFullDb = 10.0;
constexpr double kRateStepDb = 5.0;

/// The paper's idealized channel, retained as the deterministic
/// reference. Binary unit-disk connectivity at the nominal range,
/// airtime linear in frame bytes, the historic distance-ratio capture
/// rule, and — crucially — reception draws taken from the medium's
/// shared sequential RNG stream in receiver order, so every paper-scale
/// sweep is bit-identical to the pre-channel-layer medium.
class UnitDiskChannel final : public ChannelModel {
 public:
  explicit UnitDiskChannel(double capture_ratio)
      : capture_ratio_(capture_ratio) {}

  const std::string& name() const override {
    static const std::string n = "unit-disk";
    return n;
  }

  double coverage_m(double tx_range_m) const override { return tx_range_m; }

  Duration airtime(size_t on_air_bytes, double data_rate_bps) const override {
    double bits = static_cast<double>(on_air_bytes) * 8.0;
    double seconds = bits / data_rate_bps;
    return Duration::seconds(seconds);
  }

  double reception_probability(double distance_m,
                               double tx_range_m) const override {
    return distance_m <= tx_range_m ? 1.0 : 0.0;
  }

  bool receives(const RxContext& rx, common::Rng& /*link_rng*/,
                common::Rng& frame_rng) const override {
    if (rx.distance_m > rx.tx_range_m) return false;
    return !frame_rng.chance(rx.loss_rate);
  }

  bool captured(double own_distance_m, double /*own_range_m*/,
                double interferer_distance_m,
                double /*interferer_range_m*/) const override {
    return capture_ratio_ > 0.0 &&
           own_distance_m <= capture_ratio_ * interferer_distance_m;
  }

  bool deterministic_reference() const override { return true; }

 private:
  double capture_ratio_;
};

/// Log-distance path loss with the composable realism stack on top:
/// optional log-normal shadowing (independent per pair), optional
/// Rayleigh/Rician fast fading per frame, an optional Gilbert-Elliott
/// bursty erasure overlay, a logistic reception curve, an SIR-threshold
/// capture rule, optional SIR-adaptive bitrate selection, and a
/// preamble-aware airtime model.
///
/// Everything is expressed as a link margin in dB relative to the
/// transmitter's nominal range R (where the margin is 0):
///
///   margin(d) = 10 * alpha * log10(R / d)
///               [+ shadowing dB] [+ fading gain dB]
///
/// Reception probability is logistic(margin / softness) — 0.5 at the
/// nominal range, approaching a hard unit-disk step as softness -> 0 —
/// scaled by (1 - loss_rate) for the medium's ambient loss; a link in
/// the burst process's bad state receives nothing.
/// The nominal range doubles as the transmit-power proxy, so
/// mixed-range radios fall out of the same formula,
/// including capture: a frame is captured when its SIR advantage over
/// the interferer, 10*alpha*log10((own_R/own_d) / (intf_R/intf_d)),
/// meets the threshold.
///
/// Stage order in `receives` is part of the determinism contract: each
/// disabled stage consumes *zero* draws, so configurations that only
/// use the PR-5 knobs replay the exact pre-stack RNG stream (the golden
/// hashes in tests/test_channel_models.cpp pin this).
class LogDistanceChannel final : public ChannelModel {
 public:
  enum class Fading { kNone, kRayleigh, kRician };

  explicit LogDistanceChannel(const ChannelParams& p)
      : alpha_(std::max(0.1, p.path_loss_exponent)),
        sigma_db_(std::max(0.0, p.shadowing_sigma_db)),
        softness_db_(std::max(0.0, p.softness_db)),
        fading_(parse_fading(p.fading)),
        k_factor_(std::max(0.0, p.rician_k)),
        ge_(p),
        adaptive_rate_(p.adaptive_rate),
        // Solve margin(d) = -cut for d: the hard audibility cutoff.
        coverage_factor_(std::pow(
            10.0,
            (kCutSigmas * sigma_db_ + kCutSoftness * softness_db_ +
             (fading_ != Fading::kNone ? kCutFadingDb : 0.0)) /
                (10.0 * alpha_))) {}

  const std::string& name() const override {
    static const std::string n = "log-distance";
    return n;
  }

  double coverage_m(double tx_range_m) const override {
    return tx_range_m * coverage_factor_;
  }

  Duration airtime(size_t on_air_bytes, double data_rate_bps) const override {
    double bits = static_cast<double>(on_air_bytes) * 8.0;
    return Duration::seconds(kPreambleUs * 1e-6 + bits / data_rate_bps);
  }

  double reception_probability(double distance_m,
                               double tx_range_m) const override {
    if (distance_m > coverage_m(tx_range_m)) return 0.0;
    return curve(margin_db(distance_m, tx_range_m));
  }

  bool receives(const RxContext& rx, common::Rng& link_rng,
                common::Rng& frame_rng) const override {
    if (rx.distance_m > coverage_m(rx.tx_range_m)) return false;
    // A link in the burst process's bad state erases the frame. Both
    // streams are fresh per frame, so skipping their draws here changes
    // no other decision.
    if (ge_.enabled() && ge_.bad_at(rx.sender, rx.receiver, rx.time_s)) {
      return false;
    }
    double margin = margin_db(rx.distance_m, rx.tx_range_m);
    if (sigma_db_ > 0.0) {
      // link_rng restarts from the same per-pair seed on every frame,
      // so this draw is the link's fixed shadowing value for the whole
      // trial.
      margin += sigma_db_ * link_rng.gaussian();
    }
    if (fading_ != Fading::kNone) {
      margin += fading_gain_db(
          frame_rng, fading_ == Fading::kRician ? k_factor_ : 0.0);
    }
    double p = curve(margin) * (1.0 - std::clamp(rx.loss_rate, 0.0, 1.0));
    return frame_rng.uniform01() < p;
  }

  int link_state(const RxContext& rx) const override {
    if (!ge_.enabled()) return -1;
    return ge_.bad_at(rx.sender, rx.receiver, rx.time_s) ? 1 : 0;
  }

  bool captured(double own_distance_m, double own_range_m,
                double interferer_distance_m,
                double interferer_range_m) const override {
    const double sir_db = margin_db(own_distance_m, own_range_m) -
                          margin_db(interferer_distance_m, interferer_range_m);
    return sir_db >= kCaptureThresholdDb;
  }

  bool adaptive_rate() const override { return adaptive_rate_; }

  double signal_margin_db(double distance_m,
                          double tx_range_m) const override {
    return margin_db(distance_m, tx_range_m);
  }

  double select_rate_bps(double base_rate_bps, double sir_db) const override {
    // Monotone tier ladder: each step down halves the bitrate and
    // relaxes the SIR requirement by kRateStepDb. Never exceeds the base
    // rate.
    int tier = 0;
    while (tier < kRateTiers - 1 &&
           sir_db < kRateSirFullDb - tier * kRateStepDb) {
      ++tier;
    }
    return base_rate_bps / static_cast<double>(1 << tier);
  }

 private:
  static Fading parse_fading(const std::string& name) {
    if (name == "none") return Fading::kNone;
    if (name == "rayleigh") return Fading::kRayleigh;
    if (name == "rician") return Fading::kRician;
    std::string msg = "unknown fading stage \"" + name + "\"; known:";
    for (const auto& n : channel_fading_names()) msg += " " + n;
    throw std::invalid_argument(msg);
  }

  /// Mean link margin in dB at distance d from a transmitter of nominal
  /// range R: positive inside R, 0 at R, -10*alpha per decade beyond.
  double margin_db(double distance_m, double tx_range_m) const {
    return 10.0 * alpha_ *
           std::log10(tx_range_m / std::max(distance_m, kMinDistance));
  }

  /// The probabilistic reception curve over the link margin: logistic
  /// with width softness_db_, degenerating to a step when the width is 0.
  double curve(double margin) const {
    if (softness_db_ <= 0.0) return margin >= 0.0 ? 1.0 : 0.0;
    return 1.0 / (1.0 + std::exp(-margin / softness_db_));
  }

  double alpha_;
  double sigma_db_;
  double softness_db_;
  Fading fading_;
  double k_factor_;
  GilbertElliott ge_;
  bool adaptive_rate_;
  double coverage_factor_;
};

}  // namespace

GilbertElliott::GilbertElliott(const ChannelParams& p) {
  if (p.ge_bad_fraction <= 0.0) return;
  if (p.ge_bad_fraction >= 1.0) {
    throw std::invalid_argument(
        "ChannelParams::ge_bad_fraction must be below 1");
  }
  enabled_ = true;
  pi_ = p.ge_bad_fraction;
  // Continuous-time two-state chain: exit-bad rate mu fixes the mean
  // burst length; the entry rate follows from stationarity. One slot of
  // elapsed time then has the exact transition probabilities below
  // (solve the two-state Kolmogorov forward equations).
  const double mean_burst_s = std::max(slot_s(), p.ge_mean_burst_ms * 1e-3);
  const double mu = 1.0 / mean_burst_s;
  const double lambda = mu * pi_ / (1.0 - pi_);
  const double decay = std::exp(-(lambda + mu) * slot_s());
  p_gb_ = pi_ * (1.0 - decay);
  p_bb_ = pi_ + (1.0 - pi_) * decay;
  root_ = common::derive_seed(p.link_seed, kBurstTag);
}

bool GilbertElliott::bad_at(uint32_t a, uint32_t b, double time_s) const {
  const uint32_t lo = std::min(a, b);
  const uint32_t hi = std::max(a, b);
  const uint64_t pair_root =
      common::derive_seed(common::derive_seed(root_, lo), hi);
  const uint64_t slot =
      static_cast<uint64_t>(std::max(0.0, time_s) / slot_s());
  const uint64_t block = slot / kBlockSlots;
  const int offset = static_cast<int>(slot % kBlockSlots);
  // One keyed substream per (pair, block): the anchor slot draws from
  // the stationary distribution, then the chain walks forward with the
  // closed-form per-slot transitions. Any two queries of the same slot
  // replay the same uniforms, so the state is a pure function of time —
  // and within a block, consecutive slots are exactly Markov, which is
  // what gives geometric burst lengths.
  common::Rng rng(common::derive_seed(pair_root, block));
  bool bad = rng.uniform01() < pi_;
  for (int i = 0; i < offset; ++i) {
    bad = rng.uniform01() < (bad ? p_bb_ : p_gb_);
  }
  return bad;
}

double fading_gain_db(common::Rng& rng, double k_factor) {
  // Complex-Gaussian envelope with a line-of-sight component: power
  // K/(K+1) in the deterministic ray, 1/(K+1) scattered, unit mean
  // power overall. K = 0 is Rayleigh (exponential power).
  const double k = std::max(0.0, k_factor);
  const double los = std::sqrt(k / (k + 1.0));
  const double sigma = std::sqrt(1.0 / (2.0 * (k + 1.0)));
  const double re = los + sigma * rng.gaussian();
  const double im = sigma * rng.gaussian();
  const double power = std::max(re * re + im * im, 1e-12);
  return 10.0 * std::log10(power);
}

double ChannelModel::signal_margin_db(double distance_m,
                                      double tx_range_m) const {
  return distance_m <= tx_range_m
             ? 0.0
             : -std::numeric_limits<double>::infinity();
}

ChannelModelPtr make_channel_model(const ChannelParams& params) {
  if (params.model == "unit-disk") {
    return std::make_shared<UnitDiskChannel>(params.capture_ratio);
  }
  if (params.model == "log-distance") {
    return std::make_shared<LogDistanceChannel>(params);
  }
  std::string msg = "unknown channel model \"" + params.model + "\"; known:";
  for (const auto& n : channel_model_names()) msg += " " + n;
  throw std::invalid_argument(msg);
}

std::vector<std::string> channel_model_names() {
  return {"log-distance", "unit-disk"};
}

std::vector<std::string> channel_fading_names() {
  return {"none", "rayleigh", "rician"};
}

}  // namespace dapes::sim
