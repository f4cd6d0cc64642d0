#include "ip/udp.hpp"

namespace dapes::ip {

UdpLite::UdpLite(Node& node) : node_(node) {
  node_.register_handler(Proto::kUdp,
                         [this](const Packet& p) { on_packet(p); });
}

void UdpLite::send(Address peer, uint16_t src_port, uint16_t dst_port,
                   common::Bytes datagram) {
  Packet packet;
  packet.src = node_.address();
  packet.dst = peer;
  packet.proto = Proto::kUdp;
  common::Bytes payload;
  common::append_be(payload, src_port, 2);
  common::append_be(payload, dst_port, 2);
  payload.insert(payload.end(), datagram.begin(), datagram.end());
  packet.payload = std::move(payload);
  node_.send_routed(std::move(packet));
}

void UdpLite::on_packet(const Packet& packet) {
  common::BytesView payload(packet.payload.data(), packet.payload.size());
  if (payload.size() < 4) return;
  uint16_t src_port = static_cast<uint16_t>(common::read_be(payload, 0, 2));
  uint16_t dst_port = static_cast<uint16_t>(common::read_be(payload, 2, 2));
  auto it = bindings_.find(dst_port);
  if (it == bindings_.end()) return;
  common::Bytes datagram(payload.begin() + 4, payload.end());
  it->second(packet.src, src_port, datagram);
}

void UdpLite::bind(uint16_t port, ReceiveCallback cb) {
  bindings_[port] = std::move(cb);
}

}  // namespace dapes::ip
