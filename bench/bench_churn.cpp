// Churn bench: the Fig. 7 DAPES world under open membership (see
// DESIGN.md "Fault injection & open membership"), swept along the
// per-node departure-rate axis.
//
// Every series runs churn.swarm: the DAPES stack with open-membership
// peer hygiene, under the fault knobs the series sets.
//
// Series:
//   leave-only     — every departure permanent: the swarm thins out and
//                    never recovers capacity.
//   crash+restart  — half the departures are 30 s outages; crashed nodes
//                    come back with their packets (durable state), so
//                    the swarm degrades more gracefully.
//   flash-crowd    — crash+restart plus 10 latent downloaders arriving
//                    in a wave over t=60-70 s, who must catch up against
//                    the departures.
//   adversarial    — crash+restart plus 25 % of the initial downloaders
//                    lying in their bitmaps (advertise everything, serve
//                    nothing); honest peers rely on stale-claim demotion
//                    to route around them.
//
// Expected shape: download time grows and completion falls with the
// departure rate in every series; crash+restart sits below leave-only,
// the flash crowd pays a late-arrival penalty on top, and the
// adversarial series costs extra retry rounds but must not collapse —
// the no-stall property test_faults pins down.
//
// BENCH_churn.json is the committed baseline (`--trials 1 --jobs 1
// --format json`). Everything reported is deterministic per seed, so the
// baseline is byte-reproducible on any machine; CI smokes the bench and
// diffs --jobs 1 vs --jobs 8 output for the engine's determinism
// contract.
#include "bench_common.hpp"

using namespace dapes;

int main(int argc, char** argv) {
  auto args = bench::BenchArgs::parse(argc, argv);

  harness::SweepSpec spec;
  spec.title = "churn: DAPES under leave/crash churn, flash crowds, liars";
  spec.y_unit = "seconds (p90 over trials)";
  spec.base = args.scenario();
  spec.base.files = 1;
  if (!args.paper_scale && !args.quick) {
    spec.base.file_size_bytes = 16 * 1024;
  }
  spec.base.sim_limit_s = args.quick ? 300.0 : 900.0;

  spec.axis.label = "leave_rate_hz_per_node";
  spec.axis.values = args.quick ? std::vector<double>{0.0, 1.0 / 150.0}
                                : std::vector<double>{0.0, 1.0 / 600.0,
                                                      1.0 / 300.0,
                                                      1.0 / 150.0};
  spec.axis.apply = [](harness::ScenarioParams& p, double x) {
    p.faults.leave_rate_hz = x;
    // Admissions match departures so the swarm holds its size in
    // expectation; the latent pool is sized from this rate.
    p.faults.join_rate_hz = x;
  };

  spec.series.push_back({"leave-only", harness::ProtocolNames::kChurnSwarm,
                         [](harness::ScenarioParams& p) {
                           p.faults.crash_fraction = 0.0;
                         }});
  spec.series.push_back({"crash+restart", harness::ProtocolNames::kChurnSwarm,
                         [](harness::ScenarioParams& p) {
                           p.faults.crash_fraction = 0.5;
                         }});
  spec.series.push_back({"flash-crowd", harness::ProtocolNames::kChurnSwarm,
                         [](harness::ScenarioParams& p) {
                           p.faults.crash_fraction = 0.5;
                           p.faults.flash_crowd_size = 10;
                         }});
  spec.series.push_back({"adversarial", harness::ProtocolNames::kChurnSwarm,
                         [](harness::ScenarioParams& p) {
                           p.faults.crash_fraction = 0.5;
                           p.faults.adversarial_fraction = 0.25;
                         }});

  spec.metrics = {harness::download_time_metric(),
                  harness::completion_metric(),
                  harness::transmissions_k_metric()};
  return args.run(std::move(spec));
}
