// Ablation bench (beyond the paper's figures): isolates the contribution
// of individual DAPES design choices that DESIGN.md calls out, at one
// fixed WiFi range:
//   * response suppression window (WifiFace random data timer) on/off,
//   * interest pipeline depth,
//   * bitmaps first ("all bitmaps") x PEBA interaction,
//   * RPF vs sequential fetch ("no RPF" = same-start, no bitmap info
//     preference is approximated by the encounter strategy with history 1).
#include "bench_common.hpp"

using namespace dapes;

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv);
  const double range = 60.0;

  harness::SweepSpec spec;
  spec.title = "Ablation: design-choice contributions (range 60 m)";
  spec.base = args.scenario();
  spec.axis = {"range_m", {range}, [](harness::ScenarioParams& p, double x) {
                 p.wifi_range_m = x;
               }};
  spec.metrics = {harness::download_time_metric(),
                  harness::transmissions_k_metric(),
                  harness::completion_metric()};

  using P = harness::ScenarioParams;
  struct Config {
    const char* label;
    void (*apply)(P&);
  };
  for (Config cfg :
       {Config{"baseline", [](P&) {}},
        {"no-suppression",
         [](P& p) { p.peer.tx_window = common::Duration::microseconds(1); }},
        {"window=1", [](P& p) { p.peer.interest_window = 1; }},
        {"window=16", [](P& p) { p.peer.interest_window = 16; }},
        {"bitmaps-first+noPEBA",
         [](P& p) {
           p.peer.bitmaps_before_data = 0;
           p.peer.use_peba = false;
         }},
        {"history=1",
         [](P& p) {
           p.peer.rpf = core::RpfKind::kEncounterBased;
           p.peer.encounter_history = 1;
           p.peer.random_start = false;
         }}}) {
    spec.series.push_back({cfg.label, harness::ProtocolNames::kDapes,
                           [apply = cfg.apply](P& p) { apply(p); }});
  }
  return args.run(std::move(spec));
}
