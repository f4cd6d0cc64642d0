// Figure 9c — download time when peers exchange bitmaps FIRST and only
// then download data, for 1-4 exchanged bitmaps and "all bitmaps"
// (every peer within communication range).
//
// Paper shape to verify: 2-3 bitmaps are best at short ranges, 4 at long
// ranges; "all bitmaps" wastes contact time and is worst at small ranges.
#include "bench_common.hpp"

using namespace dapes;

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv);

  harness::SweepSpec spec;
  spec.title = "Fig. 9c: download time, bitmaps exchanged before data download";
  spec.y_unit = "seconds (p90 over trials)";
  spec.base = args.scenario();
  spec.axis = args.range_axis();
  spec.metrics = {harness::download_time_metric()};

  for (auto [label, b] : std::initializer_list<std::pair<const char*, int>>{
           {"1 bitmap", 1}, {"2 bitmaps", 2}, {"3 bitmaps", 3},
           {"4 bitmaps", 4}, {"all bitmaps", 0}}) {
    spec.series.push_back(
        {label, harness::ProtocolNames::kDapes,
         [b = b](harness::ScenarioParams& p) {
           p.peer.bitmaps_before_data = b;
         }});
  }
  return args.run(std::move(spec));
}
