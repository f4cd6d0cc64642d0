#include "harness/realworld.hpp"

#include <stdexcept>

#include "harness/topology.hpp"

namespace dapes::harness {

namespace {

using core::Peer;
using sim::TimePoint;
using sim::Vec2;
using Waypoint = sim::WaypointMobility::Waypoint;

TimePoint at(double seconds) {
  return TimePoint{static_cast<int64_t>(seconds * 1e6)};
}

}  // namespace

TrialResult run_realworld_trial(int scenario, const ScenarioParams& params) {
  if (scenario < 1 || scenario > 3) {
    throw std::invalid_argument("run_realworld_trial: scenario in 1..3");
  }

  Topology topo(params, params.seed * 977 + static_cast<uint64_t>(scenario),
                "/field-report-1533783192", "/realworld/producer", "image-");

  struct Member {
    std::string id;
    bool producer = false;
  };
  std::vector<Member> members;
  std::vector<sim::MobilityModel*> models;

  switch (scenario) {
    case 1: {
      // Carrier: A (producer) top-left, B bottom-left, C bottom-right —
      // three disconnected segments. D shuttles A -> B -> C.
      models.push_back(topo.fixed({50, 250}));  // A
      members.push_back({"A", true});
      models.push_back(topo.fixed({50, 50}));   // B
      members.push_back({"B", false});
      models.push_back(topo.fixed({250, 50}));  // C
      members.push_back({"C", false});
      models.push_back(topo.waypoints({
          {at(0), {60, 240}},     // with A
          {at(90), {60, 240}},    // fetch window at A
          {at(150), {60, 60}},    // walk to B
          {at(260), {60, 60}},    // serve B
          {at(330), {240, 60}},   // walk to C
          {at(1500), {240, 60}},  // serve C
      }));                        // D (carrier)
      members.push_back({"D", false});
      break;
    }
    case 2: {
      // Repository: C produces and visits the repo; A and B then fetch
      // from the repo simultaneously.
      models.push_back(topo.fixed({150, 150}));  // repo
      members.push_back({"repo", false});
      models.push_back(topo.waypoints({
          {at(0), {280, 280}},
          {at(40), {170, 165}},   // reach the repo
          {at(200), {170, 165}},  // serve the repo
          {at(260), {280, 280}},  // leave
          {at(1500), {280, 280}},
      }));                        // C (producer)
      members.push_back({"C", true});
      models.push_back(topo.waypoints({
          {at(0), {20, 150}},
          {at(280), {20, 150}},   // busy elsewhere while C seeds the repo
          {at(380), {130, 150}},  // then walk in and fetch from the repo
          {at(1500), {130, 150}},
      }));                        // A
      members.push_back({"A", false});
      models.push_back(topo.waypoints({
          {at(0), {280, 20}},
          {at(280), {280, 20}},
          {at(380), {165, 130}},  // arrives about when A does
          {at(1500), {165, 130}},
      }));                        // B
      members.push_back({"B", false});
      break;
    }
    case 3: {
      // Moving nodes: all four wander a compact area (the Fig. 8c walk
      // keeps the group loosely together); connectivity is intermittent
      // with full-group and chain (multi-hop) moments.
      sim::RandomDirectionMobility::Params rp;
      rp.field = sim::Field{160.0, 160.0};
      const Vec2 starts[4] = {{20, 20}, {140, 20}, {20, 140}, {140, 140}};
      const char* ids[4] = {"A", "B", "C", "D"};
      for (int i = 0; i < 4; ++i) {
        topo.mobility.push_back(std::make_unique<sim::RandomDirectionMobility>(
            starts[i], rp, topo.rng.fork()));
        models.push_back(topo.mobility.back().get());
        members.push_back({ids[i], i == 0});
      }
      break;
    }
  }

  std::vector<std::unique_ptr<Peer>> peers;
  CompletionTracker tracker;
  for (size_t i = 0; i < members.size(); ++i) {
    core::PeerOptions po = params.peer;
    po.id = members[i].id;
    auto peer = std::make_unique<Peer>(topo.sched, *topo.medium, models[i],
                                       topo.rng.fork(), po);
    peer->keychain().import_key(topo.producer_key);
    peer->add_trust_anchor(topo.producer_key.id());
    if (members[i].producer) {
      peer->publish(topo.collection);
    } else {
      ++tracker.expected;
      peer->subscribe(topo.collection);
      peer->set_completion_callback([&tracker](const ndn::Name&, TimePoint t) {
        tracker.record(t.to_seconds());
      });
    }
    {
      // The peer owns its discovery chain, so its records name it.
      sim::Scheduler::OwnerScope own(topo.sched, peer->node());
      peer->start();
    }
    peers.push_back(std::move(peer));
  }

  TrialResult result = run_to_completion(params, topo, tracker, [&] {
    StateSample s;
    for (const auto& p : peers) {
      s.state_bytes += p->state_bytes();
      s.knowledge_bytes += p->knowledge_bytes();
    }
    return s;
  });
  // Table I reports when the *last* peer finishes, not the mean.
  result.download_time_s = tracker.last_time(params.sim_limit_s);
  return result;
}

}  // namespace dapes::harness
