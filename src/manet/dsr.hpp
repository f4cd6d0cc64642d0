// DSR — Dynamic Source Routing (Johnson & Maltz). The reactive protocol
// underneath Ekta.
//
// Routes are discovered on demand: the source floods a Route Request;
// the target (or any node with a cached route) returns a Route Reply
// along the reversed path; data then carries the full source route. A
// forwarding node that finds its next hop unreachable sends a Route
// Error back, purging broken caches. Reactive discovery gives Ekta lower
// overhead than Bithoc's proactive DSDV, at the cost of discovery
// latency — both effects the paper reports.
#pragma once

#include <deque>
#include <map>
#include <set>
#include <vector>

#include "common/time.hpp"
#include "ip/node.hpp"

namespace dapes::manet {

using common::Duration;
using common::TimePoint;
using ip::Address;
using ip::Packet;

class Dsr final : public ip::RoutingProtocol {
 public:
  void attach(ip::Node& node) override;
  bool send(Packet packet) override;
  void forward(Packet packet) override;
  void on_control(const Packet& packet) override;
  void on_deliver(const Packet& packet) override;
  uint64_t control_messages() const override { return control_messages_; }
  bool has_route(Address dst) const override;

  size_t cache_size() const { return cache_.size(); }

 private:
  struct CachedRoute {
    std::vector<Address> path;  // includes source (=us) and destination
    TimePoint learned{};
  };

  // Control message payload types.
  enum class Kind : uint8_t { kRreq = 1, kRrep = 2, kRerr = 3 };

  void start_discovery(Address target, int attempt);
  void send_along_route(Packet packet, const std::vector<Address>& path);
  void handle_rreq(const Packet& packet);
  void handle_rrep(const Packet& packet);
  void handle_rerr(const Packet& packet);
  void learn_route(const std::vector<Address>& path);
  void drain_buffer(Address dst);

  static common::Bytes encode_control(Kind kind, uint32_t id, Address origin,
                                      Address target,
                                      const std::vector<Address>& path);
  struct Control {
    Kind kind;
    uint32_t id;
    Address origin;
    Address target;
    std::vector<Address> path;
  };
  static std::optional<Control> decode_control(common::BytesView payload);

  ip::Node* node_ = nullptr;
  std::map<Address, CachedRoute> cache_;
  std::map<Address, std::deque<Packet>> send_buffer_;
  std::set<std::pair<Address, uint32_t>> seen_rreq_;
  std::set<std::pair<Address, uint32_t>> seen_rerr_;
  std::map<Address, int> pending_discovery_;  // target -> attempt
  std::map<Address, TimePoint> discovery_cooldown_;
  uint32_t next_rreq_id_ = 1;
  uint32_t next_rerr_id_ = 1;
  uint64_t control_messages_ = 0;
};

}  // namespace dapes::manet
