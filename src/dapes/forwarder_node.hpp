/// @file
/// Nodes that forward but do not run the DAPES application.
///
/// The paper's topology (Fig. 7) includes 10 "pure forwarders" — nodes with
/// only an NFD instance (§V-A) — and 10 intermediate nodes that understand
/// DAPES semantics (§V-B) but download nothing. ForwarderNode wires a
/// radio, a wifi face, and a forwarder with the chosen strategy; it is also
/// the building block for deploying relay infrastructure in applications.
#pragma once

#include <memory>

#include "dapes/strategies.hpp"
#include "ndn/forwarder.hpp"
#include "sim/medium.hpp"
#include "sim/radio.hpp"

namespace dapes::core {

/// Which relay behavior a ForwarderNode runs.
enum class ForwarderKind {
  kPureForwarder,       ///< NDN-only node (probabilistic relay + suppression)
  kDapesIntermediate,   ///< overhears DAPES semantics (knowledge-driven)
};

/// A relay-only node: radio + wifi face + forwarder with the chosen
/// strategy, no DAPES application on top.
class ForwarderNode {
 public:
  /// Construction knobs.
  struct Options {
    ForwarderKind kind = ForwarderKind::kPureForwarder;  ///< strategy choice
    double forward_probability = 0.2;  ///< §V-A probabilistic relay p
  };

  /// Wire a radio, face and forwarder onto @p medium under @p sched.
  ForwarderNode(sim::Scheduler& sched, sim::Medium& medium,
                sim::MobilityModel* mobility, common::Rng rng,
                Options options);

  ForwarderNode(const ForwarderNode&) = delete;
  ForwarderNode& operator=(const ForwarderNode&) = delete;

  /// The node id the radio registered on the medium.
  sim::NodeId node() const { return node_; }
  /// The node's forwarder (owns tables and faces).
  ndn::Forwarder& forwarder() { return *forwarder_; }
  /// The relay strategy driving this node.
  PureForwarderStrategy& strategy() { return *strategy_; }

  /// Knowledge footprint (0 for pure forwarders), for Table-I reporting.
  size_t state_bytes() const;

  /// Crash-recovery wipe, parallel to Peer::crash: clear the radio queue
  /// and pending delayed sends so a restarted relay powers on clean. The
  /// harness retires/revives the node on the medium around this.
  void crash_reset() {
    radio_->reset();
    wifi_face_->reset();
  }

 private:
  sim::NodeId node_ = 0;
  std::unique_ptr<sim::Radio> radio_;
  std::unique_ptr<ndn::Forwarder> forwarder_;
  std::shared_ptr<ndn::WifiFace> wifi_face_;
  PureForwarderStrategy* strategy_ = nullptr;       // owned by forwarder
  DapesIntermediateStrategy* intermediate_ = nullptr;  // non-null if kind==kDapesIntermediate
};

}  // namespace dapes::core
