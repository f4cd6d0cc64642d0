#include "manet/dsdv.hpp"

namespace dapes::manet {

namespace {

/// Period of the full-table dumps (plus up to 1/8 of it in jitter).
constexpr Duration kUpdatePeriod = Duration::seconds(5.0);
/// Entries not refreshed for this long are considered broken.
constexpr Duration kRouteLifetime = Duration::seconds(20.0);
/// The infinite metric: a route this many hops long is unreachable.
constexpr uint8_t kMaxMetric = 16;
/// Minimum spacing for triggered (event-driven) dumps.
constexpr Duration kTriggeredMinGap = Duration::seconds(1.0);

}  // namespace

void Dsdv::attach(ip::Node& node) {
  node_ = &node;
  // Self route, metric 0.
  table_[node.address()] = Route{node.address(), 0, own_seq_, TimePoint{}};
  // Desynchronized periodic full dumps.
  Duration initial = Duration::microseconds(static_cast<int64_t>(
      node.rng().next_below(static_cast<uint64_t>(kUpdatePeriod.us))));
  node.scheduler().schedule(initial, [this] { broadcast_update(); });
}

bool Dsdv::route_fresh(const Route& r) const {
  if (r.next_hop == node_->address()) return true;  // self
  return node_->scheduler().now() - r.updated <= kRouteLifetime &&
         r.metric < kMaxMetric;
}

Address Dsdv::next_hop(Address dst) const {
  auto it = table_.find(dst);
  if (it == table_.end() || !route_fresh(it->second)) return ip::kInvalid;
  return it->second.next_hop;
}

uint8_t Dsdv::metric(Address dst) const {
  auto it = table_.find(dst);
  if (it == table_.end() || !route_fresh(it->second)) {
    return kMaxMetric;
  }
  return it->second.metric;
}

bool Dsdv::has_route(Address dst) const {
  return next_hop(dst) != ip::kInvalid;
}

bool Dsdv::send(Packet packet) {
  Address hop = next_hop(packet.dst);
  if (hop == ip::kInvalid) return false;
  packet.next_hop = hop;
  node_->send_link(std::move(packet), "ip-data");
  return true;
}

void Dsdv::forward(Packet packet) {
  if (packet.ttl == 0) return;
  packet.ttl -= 1;
  Address hop = next_hop(packet.dst);
  if (hop == ip::kInvalid) return;  // route broke; TCP above retransmits
  packet.next_hop = hop;
  node_->send_link(std::move(packet), "ip-data");
}

common::Bytes Dsdv::encode_table() const {
  // Entries: (dst, metric, seq) triples.
  common::Bytes out;
  common::append_be(out, table_.size(), 2);
  for (const auto& [dst, route] : table_) {
    common::append_be(out, dst, 4);
    out.push_back(route.metric);
    common::append_be(out, route.seq, 4);
  }
  return out;
}

void Dsdv::broadcast_update() {
  own_seq_ += 2;  // destinations issue even sequence numbers
  table_[node_->address()] =
      Route{node_->address(), 0, own_seq_, node_->scheduler().now()};

  Packet update;
  update.src = node_->address();
  update.dst = ip::kBroadcast;
  update.next_hop = ip::kBroadcast;
  update.proto = ip::Proto::kDsdv;
  update.payload = encode_table();
  ++control_messages_;
  node_->send_link(std::move(update), "dsdv-update");

  Duration jitter = Duration::microseconds(static_cast<int64_t>(
      node_->rng().next_below(
          static_cast<uint64_t>(kUpdatePeriod.us / 8) + 1)));
  node_->scheduler().schedule(kUpdatePeriod + jitter,
                              [this] { broadcast_update(); });
}

void Dsdv::on_control(const Packet& packet) {
  common::BytesView payload(packet.payload.data(), packet.payload.size());
  if (payload.size() < 2) return;
  size_t count = common::read_be(payload, 0, 2);
  size_t offset = 2;
  TimePoint now = node_->scheduler().now();
  for (size_t i = 0; i < count; ++i) {
    if (offset + 9 > payload.size()) break;
    Address dst = static_cast<Address>(common::read_be(payload, offset, 4));
    uint8_t metric = payload[offset + 4];
    uint32_t seq =
        static_cast<uint32_t>(common::read_be(payload, offset + 5, 4));
    offset += 9;

    if (dst == node_->address()) continue;
    uint8_t new_metric =
        metric >= kMaxMetric ? kMaxMetric : static_cast<uint8_t>(metric + 1);
    auto it = table_.find(dst);
    // DSDV rule: newer sequence wins; same sequence keeps lower metric.
    if (it == table_.end() || seq > it->second.seq ||
        (seq == it->second.seq && new_metric < it->second.metric)) {
      bool new_destination = it == table_.end();
      table_[dst] = Route{packet.src, new_metric, seq, now};
      // Triggered update (DSDV's event-driven dump): propagate important
      // changes quickly instead of waiting out the periodic timer.
      if (new_destination &&
          now - last_triggered_ >= kTriggeredMinGap) {
        last_triggered_ = now;
        node_->scheduler().schedule(
            Duration::milliseconds(
                static_cast<int64_t>(node_->rng().next_below(200))),
            [this] {
              Packet update;
              update.src = node_->address();
              update.dst = ip::kBroadcast;
              update.next_hop = ip::kBroadcast;
              update.proto = ip::Proto::kDsdv;
              update.payload = encode_table();
              ++control_messages_;
              node_->send_link(std::move(update), "dsdv-update");
            });
      }
    } else if (it->second.next_hop == packet.src) {
      it->second.updated = now;  // current next hop refreshed the route
    }
  }
}

}  // namespace dapes::manet
