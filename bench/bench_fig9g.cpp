// Figure 9g — download time for single-hop DAPES vs multi-hop with
// forwarding probability 20/40/60% at intermediate nodes.
//
// Paper shape to verify: multi-hop is 12-23% faster than single-hop;
// gains flatten beyond 40% forwarding probability.
#include "bench_common.hpp"

using namespace dapes;

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv);

  harness::SweepSpec spec;
  spec.title = "Fig. 9g: download time, varying forwarding probability";
  spec.y_unit = "seconds (p90 over trials)";
  spec.base = args.scenario();
  spec.axis = args.range_axis();
  spec.metrics = {harness::download_time_metric()};

  struct Config {
    const char* label;
    double p;
  };
  // "single-hop" is forwarding probability 0. That removes only the
  // fallback relay: knowledge-driven and control-Interest relays still run
  // (ROADMAP lists this fidelity gap).
  for (Config cfg : {Config{"single-hop", 0.0},
                     {"multi-hop p=20%", 0.2},
                     {"multi-hop p=40%", 0.4},
                     {"multi-hop p=60%", 0.6}}) {
    spec.series.push_back({cfg.label, harness::ProtocolNames::kDapes,
                           [cfg](harness::ScenarioParams& p) {
                             p.peer.forward_probability = cfg.p;
                           }});
  }
  return args.run(std::move(spec));
}
