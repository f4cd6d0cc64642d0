// DSDV — Destination-Sequenced Distance Vector routing (Perkins &
// Bhagwat, 1994). The proactive protocol underneath Bithoc.
//
// Every node periodically broadcasts its full routing table; entries
// carry destination-issued even sequence numbers so fresher information
// wins and count-to-infinity is avoided. The periodic dumps are the
// overhead the paper charges to Bithoc ("relies on proactive routing to
// maintain routes towards peers").
#pragma once

#include <map>

#include "common/time.hpp"
#include "ip/node.hpp"

namespace dapes::manet {

using common::Duration;
using common::TimePoint;
using ip::Address;
using ip::Packet;

class Dsdv final : public ip::RoutingProtocol {
 public:
  void attach(ip::Node& node) override;
  bool send(Packet packet) override;
  void forward(Packet packet) override;
  void on_control(const Packet& packet) override;
  uint64_t control_messages() const override { return control_messages_; }
  bool has_route(Address dst) const override;

  /// Next hop for dst, or kInvalid.
  Address next_hop(Address dst) const;
  /// Hop count for dst (16, the infinite metric, when unknown) — Bithoc
  /// uses this to split close (<=2 hops) from far neighbors.
  uint8_t metric(Address dst) const;

  size_t table_size() const { return table_.size(); }

 private:
  struct Route {
    Address next_hop = ip::kInvalid;
    uint8_t metric = 0;
    uint32_t seq = 0;
    TimePoint updated{};
  };

  void broadcast_update();
  common::Bytes encode_table() const;
  bool route_fresh(const Route& r) const;

  ip::Node* node_ = nullptr;
  std::map<Address, Route> table_;
  uint32_t own_seq_ = 0;
  uint64_t control_messages_ = 0;
  TimePoint last_triggered_{-1'000'000'000};
};

}  // namespace dapes::manet
