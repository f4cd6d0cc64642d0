#include "ip/node.hpp"

namespace dapes::ip {

Node::Node(sim::Scheduler& sched, sim::Medium& medium,
           sim::MobilityModel* mobility, common::Rng rng)
    : sched_(sched), medium_(medium), rng_(rng) {
  node_ = medium_.add_node(
      mobility,
      [this](const sim::FramePtr& frame, sim::NodeId) { on_frame(frame); });
  address_ = address_of(node_);
  radio_ = std::make_unique<sim::Radio>(sched_, medium_, node_, rng_.fork());
}

void Node::set_routing(std::unique_ptr<RoutingProtocol> routing) {
  routing_ = std::move(routing);
  routing_->attach(*this);
}

void Node::register_handler(Proto proto, Handler handler) {
  handlers_[proto] = std::move(handler);
}

void Node::send_link(Packet packet, const std::string& kind) {
  packet.src = packet.src == kInvalid ? address_ : packet.src;
  auto frame = std::make_shared<sim::Frame>();
  frame->sender = node_;
  frame->payload = packet.encode();
  frame->kind = kind;
  radio_->send(std::move(frame));
}

bool Node::send_routed(Packet packet) {
  packet.src = packet.src == kInvalid ? address_ : packet.src;
  if (!routing_) return false;
  return routing_->send(std::move(packet));
}

bool Node::neighbor_reachable(Address neighbor) const {
  if (neighbor == kBroadcast) return true;
  return medium_.in_range(node_, node_of(neighbor));
}

void Node::on_frame(const sim::FramePtr& frame) {
  if (frame->payload.empty() || frame->payload[0] != kMagic) return;
  auto packet = Packet::decode(
      common::BytesView(frame->payload.data(), frame->payload.size()));
  if (!packet) return;

  // Link-layer filter: unicast frames are only accepted by the next hop
  // (everyone else heard the energy — it already counted as overhead).
  if (packet->next_hop != kBroadcast && packet->next_hop != address_) {
    return;
  }

  // Routing control is handled by the routing protocol regardless of dst.
  if (packet->proto == Proto::kDsdv || packet->proto == Proto::kDsr) {
    if (routing_) routing_->on_control(*packet);
    return;
  }

  if (packet->dst == address_ || packet->dst == kBroadcast) {
    if (routing_ && packet->dst == address_) routing_->on_deliver(*packet);
    auto it = handlers_.find(packet->proto);
    if (it != handlers_.end()) it->second(*packet);
    // Broadcast app floods (HELLO) may also need relaying by the app; the
    // handler decides.
    return;
  }

  // In transit: hand to routing.
  if (routing_) routing_->forward(std::move(*packet));
}

}  // namespace dapes::ip
