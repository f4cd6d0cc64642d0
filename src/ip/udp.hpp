// UDP-lite: unreliable datagrams with 16-bit ports, over the routed
// MANET. Ekta's transport (paper §VI-B: "Ekta uses UDP over IP").
#pragma once

#include <cstdint>
#include <functional>
#include <map>

#include "ip/node.hpp"

namespace dapes::ip {

class UdpLite {
 public:
  using ReceiveCallback = std::function<void(Address peer, uint16_t src_port,
                                             const common::Bytes& datagram)>;

  explicit UdpLite(Node& node);

  /// Fire-and-forget datagram; delivery depends on routing and luck.
  void send(Address peer, uint16_t src_port, uint16_t dst_port,
            common::Bytes datagram);

  void bind(uint16_t port, ReceiveCallback cb);

 private:
  void on_packet(const Packet& packet);

  Node& node_;
  std::map<uint16_t, ReceiveCallback> bindings_;
};

}  // namespace dapes::ip
