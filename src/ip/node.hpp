// IP-lite node: the network stack the baselines run on.
//
// Owns the radio, assigns the node an Address (sim NodeId + 1, standing
// in for MANET address auto-configuration, which the paper notes is its
// own hard problem in off-the-grid IP networks), demultiplexes received
// packets by protocol, and delegates forwarding decisions to the attached
// RoutingProtocol (DSDV or DSR).
#pragma once

#include <functional>
#include <map>
#include <memory>

#include "common/rng.hpp"
#include "ip/packet.hpp"
#include "sim/medium.hpp"
#include "sim/radio.hpp"
#include "sim/scheduler.hpp"

namespace dapes::ip {

class Node;

/// Routing decides how a packet reaches a non-neighbor destination.
class RoutingProtocol {
 public:
  virtual ~RoutingProtocol() = default;

  /// Attach to a node (called once by Node::set_routing).
  virtual void attach(Node& node) = 0;

  /// Route-and-send a locally originated packet. Returns false if no
  /// route exists (yet) — reactive protocols buffer and discover.
  virtual bool send(Packet packet) = 0;

  /// A packet addressed to someone else arrived here; forward or drop.
  virtual void forward(Packet packet) = 0;

  /// Protocol control traffic for this routing protocol.
  virtual void on_control(const Packet& packet) = 0;

  /// A packet addressed to this node arrived (after demux). Lets source
  /// routing protocols harvest the route it carried.
  virtual void on_deliver(const Packet& /*packet*/) {}

  /// Control transmissions originated by this node (overhead accounting).
  virtual uint64_t control_messages() const = 0;

  /// True if a (possibly stale) route to dst is known right now.
  virtual bool has_route(Address dst) const = 0;
};

class Node {
 public:
  using Handler = std::function<void(const Packet&)>;

  Node(sim::Scheduler& sched, sim::Medium& medium,
       sim::MobilityModel* mobility, common::Rng rng);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  Address address() const { return address_; }
  sim::NodeId node_id() const { return node_; }
  sim::Scheduler& scheduler() { return sched_; }
  sim::Medium& medium() { return medium_; }
  common::Rng& rng() { return rng_; }

  void set_routing(std::unique_ptr<RoutingProtocol> routing);
  RoutingProtocol* routing() { return routing_.get(); }

  /// Register the upper-layer handler for a protocol number.
  void register_handler(Proto proto, Handler handler);

  /// Transmit to a link-layer neighbor (or broadcast). No routing.
  void send_link(Packet packet, const std::string& kind);

  /// Send via the routing protocol (buffering/discovery inside).
  bool send_routed(Packet packet);

  /// Neighbor check used by routing to emulate link-layer loss detection.
  bool neighbor_reachable(Address neighbor) const;

 private:
  void on_frame(const sim::FramePtr& frame);

  sim::Scheduler& sched_;
  sim::Medium& medium_;
  common::Rng rng_;
  sim::NodeId node_ = 0;
  Address address_ = kInvalid;
  std::unique_ptr<sim::Radio> radio_;
  std::unique_ptr<RoutingProtocol> routing_;
  std::map<Proto, Handler> handlers_;
};

/// Address <-> sim NodeId mapping.
inline Address address_of(sim::NodeId node) { return node + 1; }
inline sim::NodeId node_of(Address address) { return address - 1; }

}  // namespace dapes::ip
