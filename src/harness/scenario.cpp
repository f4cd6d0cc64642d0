// The DAPES protocol driver for the Fig. 7 scenario. Topology construction
// and the run-to-completion loop live in topology.{hpp,cpp}; this file only
// places DAPES peers and forwarders on that world.
#include "harness/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "dapes/forwarder_node.hpp"
#include "harness/topology.hpp"

namespace dapes::harness {

namespace {

using core::ForwarderNode;
using core::Peer;
using sim::TimePoint;

}  // namespace

TrialResult run_dapes_trial(const ScenarioParams& params) {
  Topology topo(params, params.seed, "/collection-1533783192",
                "/dapes/producer", "file-");

  std::vector<std::unique_ptr<Peer>> downloaders;
  std::vector<std::unique_ptr<ForwarderNode>> forwarders;
  CompletionTracker tracker;
  tracker.expected =
      params.stationary_downloaders + params.mobile_downloaders - 1;

  // Open-membership wiring (churn scenarios). Node ids are assigned by
  // construction order: repositories 0..S-1, mobile downloaders S..S+M-1
  // (the producer is node S), forwarders next, and latent arrivals
  // appended last. That layout is what lets the FaultPlan and the
  // adversary pick operate on predicted node ids before the nodes exist.
  // The wiring always runs: with every fault knob at zero it picks no
  // adversary, creates no latent node and compiles an empty plan, all
  // without a single draw, so fixed-population trials are unchanged.
  const uint32_t repo_count =
      static_cast<uint32_t>(params.stationary_downloaders);
  std::vector<uint32_t> candidates;  // initial non-producer downloaders
  for (uint32_t i = 0; i < repo_count; ++i) candidates.push_back(i);
  for (int i = 1; i < params.mobile_downloaders; ++i) {
    candidates.push_back(repo_count + static_cast<uint32_t>(i));
  }
  const std::vector<uint32_t> adversaries =
      sim::FaultPlan::pick_adversaries(params.faults, candidates,
                                       params.seed);
  tracker.expected -= static_cast<int>(adversaries.size());
  auto is_adversary = [&](uint32_t node) {
    return std::binary_search(adversaries.begin(), adversaries.end(), node);
  };
  std::map<sim::NodeId, Peer*> peer_of;
  std::map<sim::NodeId, ForwarderNode*> fwd_of;

  auto add_downloader = [&](sim::MobilityModel* mob, const std::string& id,
                            bool is_producer, bool latent, bool adversary) {
    core::PeerOptions po = params.peer;
    po.id = id;
    po.latent = latent;
    po.lie_in_bitmaps = adversary;
    auto peer = std::make_unique<Peer>(topo.sched, *topo.medium, mob,
                                       topo.rng.fork(), po);
    peer->keychain().import_key(topo.producer_key);
    peer->add_trust_anchor(topo.producer_key.id());
    if (is_producer) {
      peer->publish(topo.collection);
    } else {
      peer->subscribe(topo.collection);
      if (!adversary) {
        peer->set_completion_callback(
            [&tracker](const ndn::Name&, TimePoint t) {
              tracker.record(t.to_seconds());
            });
      }
    }
    if (!latent) {
      // Attribute the discovery chain to the node so a later crash can
      // sweep its timers; inert (never swept) in fixed-population runs.
      sim::Scheduler::OwnerScope own(topo.sched, peer->node());
      peer->start();
    }
    peer_of[peer->node()] = peer.get();
    downloaders.push_back(std::move(peer));
  };

  // Stationary repositories at a regular grid inset from the corners.
  for (int i = 0; i < params.stationary_downloaders; ++i) {
    add_downloader(topo.stationary(params, i), "repo-" + std::to_string(i),
                   /*is_producer=*/false, /*latent=*/false,
                   is_adversary(static_cast<uint32_t>(i)));
  }

  // Mobile downloaders; the first doubles as the producer that seeds the
  // collection into the swarm.
  for (int i = 0; i < params.mobile_downloaders; ++i) {
    add_downloader(topo.mobile(params), "peer-" + std::to_string(i),
                   /*is_producer=*/i == 0, /*latent=*/false,
                   is_adversary(repo_count + static_cast<uint32_t>(i)));
  }

  // Pure forwarders and intermediate DAPES nodes.
  auto add_forwarder = [&](core::ForwarderKind kind) {
    ForwarderNode::Options fo;
    fo.kind = kind;
    fo.forward_probability =
        params.peer.multihop ? params.peer.forward_probability : 0.0;
    forwarders.push_back(std::make_unique<ForwarderNode>(
        topo.sched, *topo.medium, topo.mobile(params), topo.rng.fork(), fo));
    fwd_of[forwarders.back()->node()] = forwarders.back().get();
  };
  for (int i = 0; i < params.pure_forwarders; ++i) {
    add_forwarder(core::ForwarderKind::kPureForwarder);
  }
  for (int i = 0; i < params.dapes_intermediates; ++i) {
    add_forwarder(core::ForwarderKind::kDapesIntermediate);
  }

  // Latent arrivals (flash crowd + Poisson joins): honest mobile
  // downloaders registered dead on the medium, admitted by kJoin events.
  // Appending them only *after* the fixed population means their
  // topo.rng forks never shift the paper-scale draw sequence.
  size_t latent_count =
      static_cast<size_t>(std::max(0, params.faults.flash_crowd_size));
  if (params.faults.join_rate_hz > 0.0) {
    latent_count += static_cast<size_t>(std::ceil(
        params.faults.join_rate_hz *
        std::max(0.0, params.sim_limit_s - sim::FaultPlan::kWarmupS)));
  }
  sim::FaultPlan::Population pop;
  for (size_t i = 0; i < latent_count; ++i) {
    add_downloader(topo.mobile(params), "late-" + std::to_string(i),
                   /*is_producer=*/false, /*latent=*/true,
                   /*adversary=*/false);
    pop.latent.push_back(static_cast<uint32_t>(downloaders.back()->node()));
  }
  // Removable pool: mobile downloaders except the producer, plus the
  // relays. Stationary repositories stay — they are infrastructure, and
  // retiring them would conflate churn with the coverage axis.
  for (int i = 1; i < params.mobile_downloaders; ++i) {
    pop.removable.push_back(repo_count + static_cast<uint32_t>(i));
  }
  for (const auto& [node, fwd] : fwd_of) {
    pop.removable.push_back(static_cast<uint32_t>(node));
  }
  const sim::FaultPlan plan = sim::FaultPlan::compile(
      params.faults, pop, params.sim_limit_s, params.seed);
  tracker.expected += static_cast<int>(plan.admitted_joins());

  plan.install(topo.sched, [&](const sim::FaultEvent& ev) {
    const sim::NodeId node = ev.target;
    switch (ev.kind) {
      case sim::FaultKind::kLeave:
      case sim::FaultKind::kCrash: {
        topo.medium->retire_node(node);
        topo.sched.cancel_for_node(node);
        if (auto it = peer_of.find(node); it != peer_of.end()) {
          it->second->crash();
        } else if (auto fit = fwd_of.find(node); fit != fwd_of.end()) {
          fit->second->crash_reset();
        }
        break;
      }
      case sim::FaultKind::kRestart:
      case sim::FaultKind::kJoin: {
        topo.medium->revive_node(node);
        if (auto it = peer_of.find(node); it != peer_of.end()) {
          sim::Scheduler::OwnerScope own(topo.sched, node);
          it->second->restart();
        }
        // A revived relay needs no kick: it is purely reactive.
        break;
      }
    }
  });

  // Mixed-range radios; an exact no-op when the fraction
  // is 0, so paper-scale trials are untouched.
  apply_hetero_radios(params, *topo.medium);

  TrialResult result = run_to_completion(params, topo, tracker, [&] {
    StateSample s;
    for (const auto& p : downloaders) {
      s.state_bytes += p->state_bytes();
      s.knowledge_bytes += p->knowledge_bytes();
    }
    for (const auto& f : forwarders) s.state_bytes += f->state_bytes();
    return s;
  });

  uint64_t forwards = 0;
  uint64_t timeouts = 0;
  for (const auto& f : forwarders) {
    forwards += f->strategy().forwards();
    timeouts += f->strategy().relay_timeouts();
  }
  result.forward_accuracy =
      forwards == 0 ? 0.0
                    : 1.0 - static_cast<double>(timeouts) /
                                static_cast<double>(forwards);
  return result;
}

}  // namespace dapes::harness
