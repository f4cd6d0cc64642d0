// Figure 9d — download time when peers INTERLEAVE bitmap and data
// exchanges: data fetching starts as soon as the first bitmap is known
// while further bitmaps keep arriving.
//
// Paper shape to verify: interleaving beats bitmaps-first (Fig. 9c) by
// 16-23%; more bitmaps still help (the RPF strategy gets more accurate).
//
// Interleaving is bitmaps_before_data = 1, and nothing else in the peer
// reads N, so the five "N bitmaps" series run one configuration and
// differ only in their seeds (ROADMAP lists this fidelity gap).
#include "bench_common.hpp"

using namespace dapes;

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv);

  harness::SweepSpec spec;
  spec.title = "Fig. 9d: download time, bitmap exchanges interleaved with data";
  spec.y_unit = "seconds (p90 over trials)";
  spec.base = args.scenario();
  spec.axis = args.range_axis();
  spec.metrics = {harness::download_time_metric()};

  for (const char* label :
       {"1 bitmap", "2 bitmaps", "3 bitmaps", "4 bitmaps", "all bitmaps"}) {
    spec.series.push_back({label, harness::ProtocolNames::kDapes,
                           [](harness::ScenarioParams& p) {
                             p.peer.bitmaps_before_data = 1;
                           }});
  }
  return args.run(std::move(spec));
}
