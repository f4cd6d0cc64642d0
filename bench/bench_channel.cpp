// Channel bench: the Fig. 7 DAPES world swept along one of three channel
// axes under the pluggable channel/PHY layer (see DESIGN.md "Channel &
// PHY models" and "Channel realism round two"). Every series runs the
// "dapes" driver; each sets the channel it needs in its params.
//
// Axes (--axis alpha|burst|kfactor, default alpha):
//
//   alpha    — path-loss exponent sweep. Series:
//     logdist(s=0)    log-distance, no shadowing: the reception curve
//                     alone (50 % at the nominal range).
//     logdist(s=6)    6 dB log-normal shadowing on top: links well inside
//                     the nominal range fade out, links beyond open up.
//     hetero+logdist  mixed-range radios on the same channel: half the
//                     nodes on half-range radios.
//     unit-disk       the paper's reference channel as a flat baseline
//                     (it ignores the exponent axis by construction).
//     burst(pi=.3)    Gilbert-Elliott bursty erasures (30 % bad-state
//                     occupancy, 100 ms mean bursts) over the plain
//                     log-distance curve.
//     rician(K=4)+rate Rician fast fading plus SIR-adaptive bitrate.
//
//   burst    — Gilbert-Elliott mean burst length (ms) at fixed slot size,
//     on the log-distance channel. Longer bursts at the same stationary
//     bad fraction concentrate the same loss budget into contiguous
//     outages: retransmission suppression rides out short bursts, long
//     ones stall whole pipeline windows.
//     Series: pi=0.1, pi=0.3, and pi=0.3 with Rician fading stacked.
//
//   kfactor  — Rician K-factor (0 = Rayleigh, large = line-of-sight), on
//     the log-distance channel. More line-of-sight power means fewer deep
//     fades; the adaptive-rate series trades some airtime for fewer
//     losses at low K. Series: rician, rician+rate, rician+burst.
//
// Expected alpha-axis shape: the log-distance channel is *better*
// connected than the unit-disk reference at the same nominal range — so
// its download times sit below the unit-disk line, with steeper exponents
// shrinking that fringe advantage; the burst/fading series pay for their
// extra outages on top.
//
// BENCH_channel.json is the committed baseline (`--trials 1 --jobs 1
// --format json`, default axis). Everything reported is deterministic per
// seed, so the baseline is byte-reproducible on any machine; CI smokes
// every axis and diffs --jobs 1 vs --jobs 8 output for the engine's
// determinism contract.
#include <string>
#include <vector>

#include "bench_common.hpp"

using namespace dapes;

int main(int argc, char** argv) {
  // Pre-filter the bench-specific --axis flag (BenchArgs rejects unknown
  // flags by design, so benches strip their own flags first).
  std::string axis = "alpha";
  std::vector<char*> filtered;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i] != nullptr ? argv[i] : "";
    if (a == "--axis") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: --axis requires a value\n", argv[0]);
        return 2;
      }
      axis = argv[++i];
    } else if (a.rfind("--axis=", 0) == 0) {
      axis = a.substr(7);
    } else {
      filtered.push_back(argv[i]);
    }
  }
  if (axis != "alpha" && axis != "burst" && axis != "kfactor") {
    std::fprintf(stderr, "%s: --axis: expected alpha|burst|kfactor, got %s\n",
                 argv[0], axis.c_str());
    return 2;
  }
  auto args =
      bench::BenchArgs::parse(static_cast<int>(filtered.size()),
                              filtered.data());

  harness::SweepSpec spec;
  spec.y_unit = "seconds (p90 over trials)";
  spec.base = args.scenario();
  spec.base.files = 1;
  if (!args.paper_scale && !args.quick) {
    spec.base.file_size_bytes = 16 * 1024;
  }
  spec.base.sim_limit_s = args.quick ? 300.0 : 900.0;

  using harness::ProtocolNames;
  using harness::ScenarioParams;

  if (axis == "alpha") {
    spec.title = "channel: DAPES under log-distance/shadowing/hetero radios";
    spec.axis.label = "alpha";
    spec.axis.values =
        args.quick ? std::vector<double>{2.0, 4.0}
                   : std::vector<double>{2.0, 2.7, 3.5, 4.5};
    spec.axis.apply = [](ScenarioParams& p, double x) {
      p.channel.path_loss_exponent = x;
    };
    spec.series.push_back({"logdist(s=0)", ProtocolNames::kDapes,
                           [](ScenarioParams& p) {
                             p.channel.model = "log-distance";
                             p.channel.shadowing_sigma_db = 0.0;
                           }});
    spec.series.push_back({"logdist(s=6)", ProtocolNames::kDapes,
                           [](ScenarioParams& p) {
                             p.channel.model = "log-distance";
                             p.channel.shadowing_sigma_db = 6.0;
                           }});
    spec.series.push_back(
        {"hetero+logdist", ProtocolNames::kDapes,
         [](ScenarioParams& p) {
           p.channel.model = "log-distance";
           p.hetero_range_fraction = 0.5;
         }});
    spec.series.push_back(
        {"unit-disk", ProtocolNames::kDapes, [](ScenarioParams&) {}});
    spec.series.push_back({"burst(pi=.3)", ProtocolNames::kDapes,
                           [](ScenarioParams& p) {
                             p.channel.model = "log-distance";
                             p.channel.ge_bad_fraction = 0.3;
                             p.channel.ge_mean_burst_ms = 100.0;
                           }});
    spec.series.push_back({"rician(K=4)+rate", ProtocolNames::kDapes,
                           [](ScenarioParams& p) {
                             p.channel.model = "log-distance";
                             p.channel.fading = "rician";
                             p.channel.rician_k = 4.0;
                             p.channel.adaptive_rate = true;
                           }});
  } else if (axis == "burst") {
    spec.title = "channel: DAPES vs Gilbert-Elliott mean burst length";
    spec.base.channel.model = "log-distance";
    spec.axis.label = "burst_ms";
    spec.axis.values =
        args.quick ? std::vector<double>{50.0, 200.0}
                   : std::vector<double>{25.0, 50.0, 100.0, 200.0, 400.0};
    spec.axis.apply = [](ScenarioParams& p, double x) {
      p.channel.ge_mean_burst_ms = x;
    };
    spec.series.push_back({"pi=0.1", ProtocolNames::kDapes,
                           [](ScenarioParams& p) {
                             p.channel.ge_bad_fraction = 0.1;
                           }});
    spec.series.push_back({"pi=0.3", ProtocolNames::kDapes,
                           [](ScenarioParams& p) {
                             p.channel.ge_bad_fraction = 0.3;
                           }});
    spec.series.push_back({"pi=0.3+rician(K=4)", ProtocolNames::kDapes,
                           [](ScenarioParams& p) {
                             p.channel.ge_bad_fraction = 0.3;
                             p.channel.fading = "rician";
                             p.channel.rician_k = 4.0;
                           }});
  } else {  // kfactor
    spec.title = "channel: DAPES vs Rician K-factor (0 = Rayleigh)";
    spec.base.channel.model = "log-distance";
    spec.axis.label = "K";
    spec.axis.values =
        args.quick ? std::vector<double>{0.0, 4.0}
                   : std::vector<double>{0.0, 1.0, 2.0, 4.0, 8.0, 16.0};
    spec.axis.apply = [](ScenarioParams& p, double x) {
      p.channel.fading = "rician";
      p.channel.rician_k = x;
    };
    spec.series.push_back(
        {"rician", ProtocolNames::kDapes, [](ScenarioParams&) {}});
    spec.series.push_back({"rician+rate", ProtocolNames::kDapes,
                           [](ScenarioParams& p) {
                             p.channel.adaptive_rate = true;
                           }});
    spec.series.push_back({"rician+burst", ProtocolNames::kDapes,
                           [](ScenarioParams& p) {
                             p.channel.ge_bad_fraction = 0.2;
                             p.channel.ge_mean_burst_ms = 100.0;
                           }});
  }

  spec.metrics = {harness::download_time_metric(),
                  harness::completion_metric(),
                  harness::transmissions_k_metric()};
  return args.run(std::move(spec));
}
