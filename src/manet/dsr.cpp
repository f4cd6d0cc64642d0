#include "manet/dsr.hpp"

#include <algorithm>

namespace dapes::manet {

namespace {

/// Long enough for corner-to-corner paths in the 300 m field even at the
/// shortest WiFi ranges.
constexpr uint8_t kMaxRouteLen = 16;
/// Nodes moving 2-10 m/s break links within seconds; cached paths go
/// stale quickly.
constexpr Duration kRouteLifetime = Duration::seconds(15.0);
/// First Route Request retry wait; doubles with every attempt.
constexpr Duration kDiscoveryTimeout = Duration::seconds(2.0);
constexpr int kMaxDiscoveryRetries = 3;
/// Packets buffered per unrouted destination; the oldest is dropped.
constexpr size_t kSendBufferCap = 64;
/// Pause after a fully failed discovery before retrying that target.
constexpr Duration kDiscoveryCooldown = Duration::seconds(5.0);

}  // namespace

void Dsr::attach(ip::Node& node) { node_ = &node; }

bool Dsr::has_route(Address dst) const {
  auto it = cache_.find(dst);
  return it != cache_.end() &&
         node_->scheduler().now() - it->second.learned <= kRouteLifetime;
}

common::Bytes Dsr::encode_control(Kind kind, uint32_t id, Address origin,
                                  Address target,
                                  const std::vector<Address>& path) {
  common::Bytes out;
  out.push_back(static_cast<uint8_t>(kind));
  common::append_be(out, id, 4);
  common::append_be(out, origin, 4);
  common::append_be(out, target, 4);
  common::append_be(out, path.size(), 2);
  for (Address a : path) common::append_be(out, a, 4);
  return out;
}

std::optional<Dsr::Control> Dsr::decode_control(common::BytesView payload) {
  if (payload.size() < 15) return std::nullopt;
  Control c;
  c.kind = static_cast<Kind>(payload[0]);
  c.id = static_cast<uint32_t>(common::read_be(payload, 1, 4));
  c.origin = static_cast<Address>(common::read_be(payload, 5, 4));
  c.target = static_cast<Address>(common::read_be(payload, 9, 4));
  size_t n = common::read_be(payload, 13, 2);
  if (payload.size() != 15 + 4 * n) return std::nullopt;
  c.path.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    c.path.push_back(
        static_cast<Address>(common::read_be(payload, 15 + 4 * i, 4)));
  }
  return c;
}

bool Dsr::send(Packet packet) {
  Address dst = packet.dst;
  if (has_route(dst)) {
    send_along_route(std::move(packet), cache_[dst].path);
    return true;
  }
  auto& buffer = send_buffer_[dst];
  if (buffer.size() >= kSendBufferCap) buffer.pop_front();
  buffer.push_back(std::move(packet));
  auto cooldown = discovery_cooldown_.find(dst);
  bool cooling = cooldown != discovery_cooldown_.end() &&
                 cooldown->second > node_->scheduler().now();
  if (!pending_discovery_.contains(dst) && !cooling) {
    start_discovery(dst, 0);
  }
  return true;  // buffered; will go out (or be dropped) asynchronously
}

void Dsr::send_along_route(Packet packet, const std::vector<Address>& path) {
  // path[0] == us; next hop is path[1].
  if (path.size() < 2) return;
  packet.route = path;
  packet.route_pos = 0;
  packet.next_hop = path[1];
  node_->send_link(std::move(packet), "ip-data");
}

void Dsr::start_discovery(Address target, int attempt) {
  if (attempt > kMaxDiscoveryRetries) {
    pending_discovery_.erase(target);
    send_buffer_.erase(target);  // give up; transport layer re-tries
    // Cool down before the next discovery for this target: repeated
    // failures back-to-back just burn the channel.
    discovery_cooldown_[target] = node_->scheduler().now() + kDiscoveryCooldown;
    return;
  }
  pending_discovery_[target] = attempt;

  Packet rreq;
  rreq.src = node_->address();
  rreq.dst = ip::kBroadcast;
  rreq.next_hop = ip::kBroadcast;
  rreq.proto = ip::Proto::kDsr;
  // Expanding-ring search: try a cheap local flood first, widen on retry.
  uint8_t ring =
      static_cast<uint8_t>(std::min<int>(kMaxRouteLen, 2 << attempt));
  rreq.ttl = ring;
  uint32_t id = next_rreq_id_++;
  rreq.payload = encode_control(Kind::kRreq, id, node_->address(), target,
                                {node_->address()});
  ++control_messages_;
  node_->send_link(std::move(rreq), "dsr-rreq");

  // Retry with backoff while the route stays unknown.
  Duration wait{kDiscoveryTimeout.us * (1 << attempt)};
  node_->scheduler().schedule(wait, [this, target, attempt] {
    if (!pending_discovery_.contains(target)) return;
    if (has_route(target)) {
      // Route appeared out-of-band (promiscuous learning): release the
      // discovery slot and flush whatever waited on it.
      pending_discovery_.erase(target);
      drain_buffer(target);
      return;
    }
    start_discovery(target, attempt + 1);
  });
}

void Dsr::on_deliver(const Packet& packet) {
  // Harvest the source route the packet carried: the reversed route is a
  // just-proven path back to the sender (DSR promiscuous route learning).
  if (packet.route.size() < 2) return;
  std::vector<Address> reverse(packet.route.rbegin(), packet.route.rend());
  learn_route(reverse);
}

void Dsr::forward(Packet packet) {
  // Source-routed data in transit.
  if (packet.route.empty()) return;
  // Promiscuous learning: both directions of the carried route pass
  // through us and were fresh at the sender an instant ago.
  learn_route(packet.route);
  {
    std::vector<Address> reverse(packet.route.rbegin(), packet.route.rend());
    learn_route(reverse);
  }
  size_t pos = packet.route_pos;
  // We should be route[pos+1].
  if (pos + 1 >= packet.route.size() ||
      packet.route[pos + 1] != node_->address()) {
    return;
  }
  if (pos + 2 >= packet.route.size()) return;  // we'd be the destination
  Address next = packet.route[pos + 2];
  if (!node_->neighbor_reachable(next)) {
    // DSR salvaging: if we have our own fresh route to the destination,
    // splice it in and keep the packet alive instead of dropping it.
    Address final_dst = packet.route.back();
    if (packet.ttl > 0 && has_route(final_dst)) {
      const auto& own = cache_[final_dst].path;
      if (own.size() >= 2 && node_->neighbor_reachable(own[1])) {
        Packet salvaged = packet;
        salvaged.ttl -= 1;
        salvaged.route = own;
        salvaged.route_pos = 0;
        salvaged.next_hop = own[1];
        node_->send_link(std::move(salvaged), "ip-data");
        return;
      }
    }
    // Link break: Route Error back to the origin, drop the packet.
    Packet rerr;
    rerr.src = node_->address();
    rerr.dst = packet.route.front();
    rerr.next_hop = ip::kBroadcast;  // flooded back, TTL-limited
    rerr.proto = ip::Proto::kDsr;
    rerr.ttl = 2;
    uint32_t id = next_rerr_id_++;
    rerr.payload = encode_control(Kind::kRerr, id, node_->address(), next,
                                  packet.route);
    seen_rerr_.insert({node_->address(), id});
    ++control_messages_;
    node_->send_link(std::move(rerr), "dsr-rerr");
    return;
  }
  packet.route_pos = static_cast<uint8_t>(pos + 1);
  packet.next_hop = next;
  node_->send_link(std::move(packet), "ip-data");
}

void Dsr::learn_route(const std::vector<Address>& path) {
  // Cache the route from us to every downstream node on the path.
  auto self = std::find(path.begin(), path.end(), node_->address());
  if (self == path.end()) return;
  std::vector<Address> suffix(self, path.end());
  TimePoint now = node_->scheduler().now();
  for (size_t i = 1; i < suffix.size(); ++i) {
    std::vector<Address> sub(suffix.begin(), suffix.begin() + i + 1);
    Address dest = sub.back();
    cache_[dest] = CachedRoute{std::move(sub), now};
  }
}

void Dsr::on_control(const Packet& packet) {
  auto control = decode_control(
      common::BytesView(packet.payload.data(), packet.payload.size()));
  if (!control) return;
  switch (control->kind) {
    case Kind::kRreq:
      handle_rreq(packet);
      break;
    case Kind::kRrep:
      handle_rrep(packet);
      break;
    case Kind::kRerr:
      handle_rerr(packet);
      break;
  }
}

void Dsr::handle_rreq(const Packet& packet) {
  auto c = *decode_control(
      common::BytesView(packet.payload.data(), packet.payload.size()));
  if (c.origin == node_->address()) return;
  if (!seen_rreq_.insert({c.origin, c.id}).second) return;  // duplicate
  if (std::find(c.path.begin(), c.path.end(), node_->address()) !=
      c.path.end()) {
    return;  // already on the path (stale copy)
  }

  std::vector<Address> path = c.path;
  path.push_back(node_->address());

  // Learning opportunity: the reversed prefix is a route to the origin.
  std::vector<Address> reverse(path.rbegin(), path.rend());
  learn_route(reverse);

  if (c.target == node_->address()) {
    // We are the target: unicast a Route Reply along the reversed path.
    Packet rrep;
    rrep.src = node_->address();
    rrep.dst = c.origin;
    rrep.proto = ip::Proto::kDsr;
    rrep.ttl = kMaxRouteLen;
    rrep.payload = encode_control(Kind::kRrep, c.id, c.origin, c.target, path);
    rrep.route = reverse;
    rrep.route_pos = 0;
    rrep.next_hop = reverse.size() > 1 ? reverse[1] : c.origin;
    ++control_messages_;
    node_->send_link(std::move(rrep), "dsr-rrep");
    return;
  }

  if (packet.ttl == 0 || path.size() >= kMaxRouteLen) return;

  Packet relay = packet;
  relay.ttl -= 1;
  relay.payload = encode_control(Kind::kRreq, c.id, c.origin, c.target, path);
  ++control_messages_;
  node_->send_link(std::move(relay), "dsr-rreq");
}

void Dsr::handle_rrep(const Packet& packet) {
  auto c = *decode_control(
      common::BytesView(packet.payload.data(), packet.payload.size()));

  if (packet.dst == node_->address()) {
    // Discovery complete at the origin.
    learn_route(c.path);
    pending_discovery_.erase(c.target);
    drain_buffer(c.target);
    return;
  }

  // Relay the RREP along its source route (reversed discovery path).
  if (packet.route.empty()) return;
  size_t pos = packet.route_pos;
  if (pos + 1 >= packet.route.size() ||
      packet.route[pos + 1] != node_->address()) {
    return;
  }
  learn_route(c.path);  // intermediate nodes cache too
  if (pos + 2 >= packet.route.size()) return;
  Packet relay = packet;
  relay.route_pos = static_cast<uint8_t>(pos + 1);
  relay.next_hop = relay.route[pos + 2];
  ++control_messages_;
  node_->send_link(std::move(relay), "dsr-rrep");
}

void Dsr::handle_rerr(const Packet& packet) {
  auto c = *decode_control(
      common::BytesView(packet.payload.data(), packet.payload.size()));
  // Each RERR is processed and relayed at most once per node, or the
  // flood amplifies exponentially.
  if (!seen_rerr_.insert({c.origin, c.id}).second) return;
  if (seen_rerr_.size() > 8192) seen_rerr_.clear();
  // Purge every cached route using the broken link (reporter -> target).
  for (auto it = cache_.begin(); it != cache_.end();) {
    const auto& path = it->second.path;
    bool broken = false;
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      if (path[i] == c.origin && path[i + 1] == c.target) {
        broken = true;
        break;
      }
    }
    it = broken ? cache_.erase(it) : ++it;
  }
  // Relay toward the packet's destination (the discovery origin) by
  // re-flooding with TTL (cheap approximation of reverse-path delivery).
  if (packet.dst != node_->address() && packet.ttl > 0) {
    Packet relay = packet;
    relay.ttl -= 1;
    relay.next_hop = ip::kBroadcast;
    ++control_messages_;
    node_->send_link(std::move(relay), "dsr-rerr");
  }
}

void Dsr::drain_buffer(Address dst) {
  auto it = send_buffer_.find(dst);
  if (it == send_buffer_.end()) return;
  std::deque<Packet> pending = std::move(it->second);
  send_buffer_.erase(it);
  for (auto& p : pending) {
    if (has_route(dst)) {
      send_along_route(std::move(p), cache_[dst].path);
    }
  }
}

}  // namespace dapes::manet
