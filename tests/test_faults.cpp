// The fault-injection subsystem's contracts (DESIGN.md "Fault injection
// & open membership"):
//
//   * FaultPlan purity — compiling is a pure function of (params,
//     population, limit, seed); the sim-limit only truncates; per-process
//     draw streams are independent; the departure floor holds. Default
//     knobs compile an empty plan, so the always-on wiring leaves
//     fixed-population trials unchanged (the golden sweeps and
//     test_harness's pinned trial hold them byte-identical).
//   * Churn determinism — under real churn (leaves, crashes, flash
//     crowd, liars) the trial is bit-identical between grid and brute
//     media, and between --jobs 1 and 8.
//   * In-flight frames outlive their sender — retiring a sender and
//     sweeping its events cannot recall a frame already on the air —
//     and never reach a node admitted after they were sent, even in
//     the same instant, on either medium.
//   * Graceful degradation — adversarial bitmap liars never stall the
//     honest swarm.
//   * Lifecycle tracing — node.join / node.leave / fault.inject /
//     peer.lied records land in the trial trace with the right shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "harness/driver.hpp"
#include "harness/trial_runner.hpp"
#include "sim/faults.hpp"
#include "sim/medium.hpp"
#include "sim/mobility.hpp"
#include "trace/events.hpp"
#include "trace/format.hpp"

namespace dapes::harness {
namespace {

// --- FaultPlan unit tests --------------------------------------------

sim::FaultPlan::Population small_population() {
  sim::FaultPlan::Population pop;
  for (uint32_t n = 3; n < 23; ++n) pop.removable.push_back(n);
  for (uint32_t n = 30; n < 45; ++n) pop.latent.push_back(n);
  return pop;
}

sim::FaultParams busy_faults() {
  sim::FaultParams f;
  f.leave_rate_hz = 1.0 / 60.0;
  f.crash_fraction = 0.5;
  f.flash_crowd_size = 5;
  f.join_rate_hz = 1.0 / 40.0;
  return f;
}

TEST(FaultPlan, CompileIsPure) {
  const auto pop = small_population();
  const auto f = busy_faults();
  const auto a = sim::FaultPlan::compile(f, pop, 600.0, 42);
  const auto b = sim::FaultPlan::compile(f, pop, 600.0, 42);
  ASSERT_EQ(a.events().size(), b.events().size());
  for (size_t i = 0; i < a.events().size(); ++i) {
    EXPECT_EQ(a.events()[i].at.us, b.events()[i].at.us);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].target, b.events()[i].target);
  }
  EXPECT_GT(a.events().size(), 0u);
  // A different trial seed reshapes the schedule.
  const auto c = sim::FaultPlan::compile(f, pop, 600.0, 43);
  const bool same =
      a.events().size() == c.events().size() &&
      std::equal(a.events().begin(), a.events().end(), c.events().begin(),
                 [](const sim::FaultEvent& x, const sim::FaultEvent& y) {
                   return x.at.us == y.at.us && x.kind == y.kind &&
                          x.target == y.target;
                 });
  EXPECT_FALSE(same);
}

TEST(FaultPlan, DefaultParamsCompileEmpty) {
  const auto plan = sim::FaultPlan::compile(sim::FaultParams{},
                                            small_population(), 600.0, 1);
  EXPECT_TRUE(plan.events().empty());
}

TEST(FaultPlan, SimLimitOnlyTruncates) {
  // Every event of the short plan appears identically in the long plan:
  // the limit truncates the schedule, it never reshapes the draws.
  const auto pop = small_population();
  const auto f = busy_faults();
  const auto short_plan = sim::FaultPlan::compile(f, pop, 150.0, 7);
  const auto long_plan = sim::FaultPlan::compile(f, pop, 600.0, 7);
  std::vector<sim::FaultEvent> long_head;
  for (const auto& ev : long_plan.events()) {
    if (ev.at.us < 150'000'000) long_head.push_back(ev);
  }
  const auto& short_events = short_plan.events();
  ASSERT_EQ(short_events.size(), long_head.size());
  for (size_t i = 0; i < short_events.size(); ++i) {
    EXPECT_EQ(short_events[i].at.us, long_head[i].at.us) << i;
    EXPECT_EQ(short_events[i].kind, long_head[i].kind) << i;
    EXPECT_EQ(short_events[i].target, long_head[i].target) << i;
  }
}

TEST(FaultPlan, StreamsAreIndependent) {
  // Adding a flash crowd must not shift the leave/crash draws: the
  // non-join events are identical with and without it.
  const auto pop = small_population();
  auto f = busy_faults();
  f.flash_crowd_size = 0;
  f.join_rate_hz = 0.0;
  const auto without = sim::FaultPlan::compile(f, pop, 600.0, 9);
  auto g = f;
  g.flash_crowd_size = 5;
  g.join_rate_hz = 1.0 / 40.0;
  const auto with = sim::FaultPlan::compile(g, pop, 600.0, 9);
  std::vector<sim::FaultEvent> non_join;
  for (const auto& ev : with.events()) {
    if (ev.kind != sim::FaultKind::kJoin) non_join.push_back(ev);
  }
  ASSERT_EQ(non_join.size(), without.events().size());
  for (size_t i = 0; i < non_join.size(); ++i) {
    EXPECT_EQ(non_join[i].at.us, without.events()[i].at.us) << i;
    EXPECT_EQ(non_join[i].kind, without.events()[i].kind) << i;
    EXPECT_EQ(non_join[i].target, without.events()[i].target) << i;
  }
}

TEST(FaultPlan, DepartureFloorHolds) {
  // Replay the compiled membership walk: the removable population never
  // drops below a quarter of its initial size.
  const auto pop = small_population();
  auto f = busy_faults();
  f.leave_rate_hz = 1.0;  // aggressive: the floor must do the work
  const auto plan = sim::FaultPlan::compile(f, pop, 600.0, 11);
  const size_t floor_count = 5;  // ceil(0.25 * 20)
  std::set<uint32_t> alive(pop.removable.begin(), pop.removable.end());
  size_t lowest = alive.size();
  for (const auto& ev : plan.events()) {
    switch (ev.kind) {
      case sim::FaultKind::kLeave:
      case sim::FaultKind::kCrash:
        ASSERT_TRUE(alive.contains(ev.target)) << "double departure";
        alive.erase(ev.target);
        break;
      case sim::FaultKind::kRestart:
        alive.insert(ev.target);
        break;
      default:
        break;
    }
    EXPECT_GE(alive.size(), floor_count);
    lowest = std::min(lowest, alive.size());
  }
  // The floor actually binds.
  EXPECT_EQ(lowest, floor_count);
}

TEST(FaultPlan, EventsSortedAndJoinsCounted) {
  const auto pop = small_population();
  const auto plan = sim::FaultPlan::compile(busy_faults(), pop, 600.0, 13);
  size_t joins = 0;
  for (size_t i = 0; i < plan.events().size(); ++i) {
    if (i > 0) {
      EXPECT_LE(plan.events()[i - 1].at.us, plan.events()[i].at.us);
    }
    if (plan.events()[i].kind == sim::FaultKind::kJoin) ++joins;
  }
  EXPECT_EQ(plan.admitted_joins(), joins);
  EXPECT_GT(joins, 0u);
  // Join targets consume the latent pool in order, without reuse.
  std::set<uint32_t> seen;
  for (const auto& ev : plan.events()) {
    if (ev.kind != sim::FaultKind::kJoin) continue;
    EXPECT_TRUE(seen.insert(ev.target).second);
    EXPECT_TRUE(std::find(pop.latent.begin(), pop.latent.end(), ev.target) !=
                pop.latent.end());
  }
}

TEST(FaultPlan, AdversaryPickIsDeterministic) {
  sim::FaultParams f;
  f.adversarial_fraction = 0.25;
  std::vector<uint32_t> candidates;
  for (uint32_t n = 0; n < 20; ++n) candidates.push_back(n);
  const auto a = sim::FaultPlan::pick_adversaries(f, candidates, 5);
  const auto b = sim::FaultPlan::pick_adversaries(f, candidates, 5);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 5u);  // floor(0.25 * 20)
  EXPECT_TRUE(std::is_sorted(a.begin(), a.end()));
  const auto c = sim::FaultPlan::pick_adversaries(f, candidates, 6);
  EXPECT_NE(a, c);
  f.adversarial_fraction = 0.0;
  EXPECT_TRUE(sim::FaultPlan::pick_adversaries(f, candidates, 5).empty());
}

// --- Trial-level equivalence -----------------------------------------

// Small enough for suite speed; big enough for real contention, relays
// and multi-hop traffic.
ScenarioParams small_field(uint64_t seed) {
  ScenarioParams p;
  p.files = 1;
  p.file_size_bytes = 8 * 1024;
  p.mobile_downloaders = 8;
  p.stationary_downloaders = 2;
  p.pure_forwarders = 3;
  p.dapes_intermediates = 3;
  p.wifi_range_m = 80.0;
  p.data_rate_bps = 11e6;
  p.sim_limit_s = 300.0;
  p.seed = seed;
  return p;
}

ScenarioParams churny_field(uint64_t seed) {
  ScenarioParams p = small_field(seed);
  p.faults.leave_rate_hz = 1.0 / 120.0;
  p.faults.crash_fraction = 0.5;
  p.faults.flash_crowd_size = 3;
  p.faults.join_rate_hz = 1.0 / 120.0;
  p.faults.adversarial_fraction = 0.2;
  p.peer.knowledge_ttl = core::kNeighborTtl * 2;
  p.peer.stale_retry_limit = 3;
  return p;
}

void expect_equal(const TrialResult& a, const TrialResult& b) {
  EXPECT_DOUBLE_EQ(a.download_time_s, b.download_time_s);
  EXPECT_DOUBLE_EQ(a.completion_fraction, b.completion_fraction);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.tx_by_kind, b.tx_by_kind);
  EXPECT_EQ(a.collided_frames, b.collided_frames);
  EXPECT_EQ(a.peak_state_bytes, b.peak_state_bytes);
  EXPECT_EQ(a.total_state_bytes, b.total_state_bytes);
  EXPECT_EQ(a.peak_knowledge_bytes, b.peak_knowledge_bytes);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.context_switches, b.context_switches);
  EXPECT_EQ(a.system_calls, b.system_calls);
  EXPECT_EQ(a.page_faults, b.page_faults);
}

TEST(Faults, ChurnTrialIdenticalGridVsBrute) {
  for (uint64_t seed : {1ull, 5ull, 9ull}) {
    SCOPED_TRACE(seed);
    ScenarioParams p = churny_field(seed);
    TrialResult grid = run_trial(ProtocolNames::kDapes, p);
    // Churn must actually bite for the comparison to mean anything.
    ASSERT_GT(grid.transmissions, 0u);
    ScenarioParams q = p;
    q.brute_force_medium = true;
    TrialResult brute = run_trial(ProtocolNames::kDapes, q);
    expect_equal(grid, brute);
  }
}

TEST(Faults, ChurnTrialsIdenticalAcrossJobs) {
  ScenarioParams p = churny_field(3);
  const int trials = 4;
  auto a = TrialRunner(1).run(ProtocolNames::kChurnSwarm, p, trials);
  auto b = TrialRunner(8).run(ProtocolNames::kChurnSwarm, p, trials);
  ASSERT_EQ(a.size(), b.size());
  for (int t = 0; t < trials; ++t) {
    SCOPED_TRACE(t);
    expect_equal(a[t], b[t]);
  }
}

TEST(Faults, AdversariesNeverStallHonestSwarm) {
  // Liars only: no departures, just 25% of the initial downloaders
  // advertising everything and serving nothing. With stale-claim
  // demotion on, every honest downloader still completes.
  for (uint64_t seed : {1ull, 2ull, 3ull}) {
    SCOPED_TRACE(seed);
    ScenarioParams p = small_field(seed);
    p.faults.adversarial_fraction = 0.25;
    p.peer.knowledge_ttl = core::kNeighborTtl * 2;
    p.peer.stale_retry_limit = 3;
    TrialResult r = run_trial(ProtocolNames::kDapes, p);
    EXPECT_DOUBLE_EQ(r.completion_fraction, 1.0) << "honest swarm stalled";
  }
}

// --- Lifecycle tracing -----------------------------------------------

struct TempDir {
  std::filesystem::path path;
  explicit TempDir(const std::string& tag)
      : path(std::filesystem::temp_directory_path() /
             ("dapes_faults_test_" + tag)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDir() { std::filesystem::remove_all(path); }
};

TEST(Faults, LifecycleEventsLandInTrace) {
  TempDir dir("lifecycle");
  ScenarioParams p = churny_field(6);
  p.trace.sink = "file";
  p.trace.path = (dir.path / "churn").string();
  run_trial(ProtocolNames::kDapes, p);

  const trace::TraceData t =
      trace::read_trace_file((dir.path / "churn").string());
  ASSERT_FALSE(t.records.empty());

  std::map<uint16_t, size_t> by_type;
  size_t setup_joins = 0;
  for (const auto& r : t.records) {
    ++by_type[r.type];
    if (r.type == static_cast<uint16_t>(trace::EventType::kNodeJoin) &&
        r.narg >= 1 && r.args[0] == 0) {
      ++setup_joins;
    }
  }
  const auto count = [&](trace::EventType type) {
    auto it = by_type.find(static_cast<uint16_t>(type));
    return it == by_type.end() ? size_t{0} : it->second;
  };
  // Every initially-alive node traces a setup join (arg0 = 0); latent
  // nodes do not until admitted (arg0 = 1).
  const size_t initial = static_cast<size_t>(
      p.stationary_downloaders + p.mobile_downloaders + p.pure_forwarders +
      p.dapes_intermediates);
  EXPECT_EQ(setup_joins, initial);
  EXPECT_GT(count(trace::EventType::kNodeJoin), setup_joins);
  EXPECT_GT(count(trace::EventType::kNodeLeave), 0u);
  EXPECT_GT(count(trace::EventType::kFaultInject), 0u);
  EXPECT_GT(count(trace::EventType::kPeerLied), 0u);
  // Every lifecycle apply is announced by a fault.inject record.
  EXPECT_GE(count(trace::EventType::kFaultInject),
            count(trace::EventType::kNodeLeave));
}

TEST(Faults, InFlightFrameOutlivesSweptSender) {
  // A sender transmits inside its own OwnerScope (as every protocol
  // callback does), then dies before the frame leaves the air: the
  // teardown sweep must take its timers but not the frame, which must
  // still reach every receiver in range.
  sim::Scheduler sched;
  sim::Medium::Params mp;
  mp.range_m = 50.0;
  mp.loss_rate = 0.0;
  sim::Medium medium(sched, mp, common::Rng(7));
  std::vector<std::unique_ptr<sim::StationaryMobility>> spots;
  std::map<sim::NodeId, int> received;
  auto add = [&](double x) {
    spots.push_back(std::make_unique<sim::StationaryMobility>(sim::Vec2{x, 0}));
    return medium.add_node(spots.back().get(),
                           [&](const sim::FramePtr&, sim::NodeId receiver) {
                             ++received[receiver];
                           });
  };
  const sim::NodeId sender = add(0.0);
  const std::vector<sim::NodeId> in_range = {add(10.0), add(25.0), add(45.0)};
  const sim::NodeId out_of_range = add(200.0);

  bool completed = false;
  bool timer_fired = false;
  {
    sim::Scheduler::OwnerScope own(sched, sender);
    auto frame = std::make_shared<sim::Frame>();
    frame->sender = sender;
    frame->payload = common::Bytes(1000, 0x5a);
    medium.transmit(frame, [&](const sim::Medium::TxReport&) {
      completed = true;
    });
    sched.schedule(sim::Duration::milliseconds(1),
                   [&] { timer_fired = true; });
  }
  // Still at time zero, so the frame is on the air while its sender dies.
  ASSERT_GT(medium.frame_duration(1000).us, 0);
  medium.retire_node(sender);
  // Only the sender's own timer is swept; the delivery is unowned.
  EXPECT_EQ(sched.cancel_for_node(sender), 1u);
  sched.run();

  for (sim::NodeId r : in_range) EXPECT_EQ(received[r], 1) << "node " << r;
  EXPECT_EQ(received.count(out_of_range), 0u);
  EXPECT_EQ(received.count(sender), 0u);
  EXPECT_EQ(medium.stats().deliveries, in_range.size());
  EXPECT_FALSE(timer_fired);
  // A dead sender gets no completion report.
  EXPECT_FALSE(completed);
}

// A node admitted in the same event as a transmit, but after the call,
// was not listening when the frame was sent: neither medium delivers it.
// Node 0 transmits at t = 1 ms; node 1, registered latent (@p revive) or
// not registered yet, is admitted right after the transmit call. Returns
// the number of frames node 1 received.
int frames_to_same_instant_admission(bool brute, bool revive) {
  sim::Scheduler sched;
  sim::Medium::Params mp;
  mp.range_m = 50.0;
  mp.loss_rate = 0.0;
  mp.brute_force = brute;
  sim::Medium medium(sched, mp, common::Rng(7));
  sim::StationaryMobility sender_spot(sim::Vec2{0, 0});
  sim::StationaryMobility peer_spot(sim::Vec2{10, 0});
  int received = 0;
  auto count = [&](const sim::FramePtr&, sim::NodeId receiver) {
    if (receiver == 1) ++received;
  };
  const sim::NodeId sender = medium.add_node(&sender_spot, count);
  if (revive) medium.add_node(&peer_spot, count, /*alive=*/false);
  sched.schedule_at(common::TimePoint{1000}, [&] {
    auto frame = std::make_shared<sim::Frame>();
    frame->sender = sender;
    frame->payload = common::Bytes(200, 0x5a);
    medium.transmit(frame);
    if (revive) {
      medium.revive_node(1);
    } else {
      EXPECT_EQ(medium.add_node(&peer_spot, count), 1u);
    }
  });
  sched.run();
  EXPECT_EQ(medium.stats().transmissions, 1u);
  EXPECT_TRUE(medium.node_alive(1));
  return received;
}

TEST(Faults, SameInstantReviveMissesFrameInFlight) {
  for (bool brute : {false, true}) {
    EXPECT_EQ(frames_to_same_instant_admission(brute, /*revive=*/true), 0)
        << "brute=" << brute;
  }
}

TEST(Faults, SameInstantJoinMissesFrameInFlight) {
  for (bool brute : {false, true}) {
    EXPECT_EQ(frames_to_same_instant_admission(brute, /*revive=*/false), 0)
        << "brute=" << brute;
  }
}

}  // namespace
}  // namespace dapes::harness
