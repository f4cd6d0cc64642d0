// Figure 9a — file collection download time vs WiFi range for the four
// RPF configurations: {same, random} first packet x {encounter-based,
// local neighborhood} RPF. Peers fetch all bitmaps before downloading
// (the figure's setup per §VI-C "when peers first fetch the bitmap of all
// the others within their communication range and then share data").
//
// Paper shape to verify: local-neighborhood ~12-14% faster than
// encounter-based; random first packet ~11-15% faster than same.
#include "bench_common.hpp"

using namespace dapes;

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv);

  harness::SweepSpec spec;
  spec.title = "Fig. 9a: download time vs WiFi range (RPF strategies)";
  spec.y_unit = "seconds (p90 over trials)";
  spec.base = args.scenario();
  spec.axis = args.range_axis();
  spec.metrics = {harness::download_time_metric()};

  struct Config {
    const char* label;
    core::RpfKind rpf;
    bool random_start;
  };
  for (Config cfg : {Config{"same+encounter", core::RpfKind::kEncounterBased, false},
                     {"random+encounter", core::RpfKind::kEncounterBased, true},
                     {"same+local", core::RpfKind::kLocalNeighborhood, false},
                     {"random+local", core::RpfKind::kLocalNeighborhood, true}}) {
    spec.series.push_back(
        {cfg.label, harness::ProtocolNames::kDapes,
         [cfg](harness::ScenarioParams& p) {
           p.peer.rpf = cfg.rpf;
           p.peer.random_start = cfg.random_start;
           p.peer.bitmaps_before_data = 0;  // all bitmaps, per the figure
         }});
  }
  return args.run(std::move(spec));
}
