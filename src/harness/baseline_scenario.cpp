// Fig. 7 topology drivers for the IP baselines (Bithoc, Ekta).
//
// Mirrors run_dapes_trial: same field, same mobility, same stationary/
// mobile downloader split, same collection workload (all built by the
// shared Topology). The 20 non-downloading nodes "forward received packets
// based on their routing tables" (paper §VI-B): they run the respective
// routing protocol (and relay Bithoc's scoped HELLO floods) without the
// application.
#include "baselines/bithoc.hpp"
#include "baselines/ekta.hpp"
#include "harness/scenario.hpp"
#include "harness/topology.hpp"

namespace dapes::harness {

namespace {

using baselines::BithocPeer;
using baselines::EktaPeer;
using baselines::HelloRelay;
using sim::TimePoint;

// Places the downloaders for either baseline; `make_peer` builds the
// protocol-specific peer from (mobility, is_seed). Bithoc peers start as
// they are placed; Ekta peers start after membership bootstrap, so event
// insertion order (the scheduler's same-timestamp tie-break) matches the
// per-protocol setups this replaces.
template <typename PeerT, typename MakePeer>
std::vector<std::unique_ptr<PeerT>> place_downloaders(
    const ScenarioParams& params, Topology& topo, CompletionTracker& tracker,
    MakePeer make_peer, bool start_each) {
  std::vector<std::unique_ptr<PeerT>> peers;
  const int total_downloaders =
      params.stationary_downloaders + params.mobile_downloaders;
  for (int i = 0; i < total_downloaders; ++i) {
    sim::MobilityModel* mob = i < params.stationary_downloaders
                                  ? topo.stationary(params, i)
                                  : topo.mobile(params);
    bool is_seed = i == params.stationary_downloaders;  // first mobile node
    std::unique_ptr<PeerT> peer = make_peer(mob, is_seed);
    if (!is_seed) {
      peer->set_completion_callback([&tracker](TimePoint t) {
        tracker.record(t.to_seconds());
      });
    }
    if (start_each) peer->start();
    peers.push_back(std::move(peer));
  }
  return peers;
}

template <typename PeerT>
TrialResult finish(const ScenarioParams& params, Topology& topo,
                   CompletionTracker& tracker,
                   const std::vector<std::unique_ptr<PeerT>>& peers) {
  return run_to_completion(params, topo, tracker, [&] {
    StateSample s;
    for (const auto& p : peers) s.state_bytes += p->state_bytes();
    return s;
  });
}

}  // namespace

TrialResult run_bithoc_trial(const ScenarioParams& params) {
  Topology topo(params, params.seed, "/collection-1533783192", "/producer",
                "file-");
  CompletionTracker tracker;
  tracker.expected =
      params.stationary_downloaders + params.mobile_downloaders - 1;

  auto peers = place_downloaders<BithocPeer>(
      params, topo, tracker, [&](sim::MobilityModel* mob, bool is_seed) {
        return std::make_unique<BithocPeer>(topo.sched, *topo.medium, mob,
                                            topo.rng.fork(), topo.collection,
                                            is_seed);
      },
      /*start_each=*/true);

  std::vector<std::unique_ptr<ip::Node>> forwarders;
  std::vector<std::unique_ptr<HelloRelay>> relays;
  const int forwarder_count =
      params.pure_forwarders + params.dapes_intermediates;
  for (int i = 0; i < forwarder_count; ++i) {
    auto node = std::make_unique<ip::Node>(topo.sched, *topo.medium,
                                           topo.mobile(params),
                                           topo.rng.fork());
    node->set_routing(std::make_unique<manet::Dsdv>());
    relays.push_back(std::make_unique<HelloRelay>(*node));
    forwarders.push_back(std::move(node));
  }

  return finish(params, topo, tracker, peers);
}

TrialResult run_ekta_trial(const ScenarioParams& params) {
  Topology topo(params, params.seed, "/collection-1533783192", "/producer",
                "file-");
  CompletionTracker tracker;
  tracker.expected =
      params.stationary_downloaders + params.mobile_downloaders - 1;

  auto peers = place_downloaders<EktaPeer>(
      params, topo, tracker, [&](sim::MobilityModel* mob, bool is_seed) {
        return std::make_unique<EktaPeer>(topo.sched, *topo.medium, mob,
                                          topo.rng.fork(), topo.collection,
                                          is_seed);
      },
      /*start_each=*/false);
  // Bootstrap member lists (Ekta nodes know the swarm membership).
  for (auto& a : peers) {
    for (auto& b : peers) {
      a->add_member(b->address());
    }
  }
  for (auto& p : peers) p->start();

  std::vector<std::unique_ptr<ip::Node>> forwarders;
  const int forwarder_count =
      params.pure_forwarders + params.dapes_intermediates;
  for (int i = 0; i < forwarder_count; ++i) {
    auto node = std::make_unique<ip::Node>(topo.sched, *topo.medium,
                                           topo.mobile(params),
                                           topo.rng.fork());
    node->set_routing(std::make_unique<manet::Dsr>());
    forwarders.push_back(std::move(node));
  }

  return finish(params, topo, tracker, peers);
}

}  // namespace dapes::harness
