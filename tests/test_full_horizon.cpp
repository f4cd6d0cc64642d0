// Full-horizon pin: one scale.field trial at 300 nodes, run until every
// downloader is done. perfbench's field1k pins stop at 40 s, before most
// downloads finish; this trial runs through the discovery tail, where CS
// eviction order and PIT expiry decide which frames go on the air. A
// change to the data plane's eviction, expiry or scan order can move
// these numbers.
//
// About 7 s in Release and 100 s under ASan+UBSan Debug, so the trial has
// a file of its own: ctest -j runs it alongside the other entries.
#include <gtest/gtest.h>

#include "harness/driver.hpp"
#include "harness/scale.hpp"

namespace dapes::harness {
namespace {

TEST(FullHorizon, Field300WaypointSeed1) {
  ScenarioParams p;
  apply_scale(p, 300);
  p.mobility = MobilityKind::kRandomWaypoint;
  p.files = 1;
  p.file_size_bytes = 16 * 1024;
  p.sim_limit_s = 180.0;
  p.seed = 1;

  const TrialResult r = run_trial(ProtocolNames::kScaleField, p);

  EXPECT_EQ(r.transmissions, 101061u);
  EXPECT_EQ(r.events_executed, 425031u);
  EXPECT_EQ(r.completion_fraction, 1.0);
  // The %.17g rendering, which round-trips to the same double.
  EXPECT_EQ(r.download_time_s, 37.620734748466283);
}

}  // namespace
}  // namespace dapes::harness
