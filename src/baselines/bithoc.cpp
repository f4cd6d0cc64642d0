#include "baselines/bithoc.hpp"

#include <algorithm>

namespace dapes::baselines {

namespace {

// HELLO payload: [seq(4)][orig_ttl(1)][bitmap wire form]
common::Bytes encode_hello(uint32_t seq, uint8_t orig_ttl,
                           const Bitmap& bitmap) {
  common::Bytes out;
  common::append_be(out, seq, 4);
  out.push_back(orig_ttl);
  common::Bytes bits = bitmap.encode();
  out.insert(out.end(), bits.begin(), bits.end());
  return out;
}

struct HelloFields {
  uint32_t seq;
  uint8_t orig_ttl;
  Bitmap bitmap;
};

std::optional<HelloFields> decode_hello(common::BytesView payload) {
  if (payload.size() < 5) return std::nullopt;
  HelloFields h;
  h.seq = static_cast<uint32_t>(common::read_be(payload, 0, 4));
  h.orig_ttl = payload[4];
  auto bm = Bitmap::decode(payload.subspan(5));
  if (!bm) return std::nullopt;
  h.bitmap = std::move(*bm);
  return h;
}

// TCP messages: [type(1)][piece(4)] for requests,
// [type(1)][piece(4)][payload] for data.
constexpr uint8_t kMsgRequest = 1;
constexpr uint8_t kMsgPiece = 2;

constexpr common::Duration kHelloPeriod = common::Duration::seconds(2.0);
/// Initial HELLO TTL: 1 means one relay hop, so HELLOs reach the paper's
/// "close" neighborhood of at most two hops.
constexpr uint8_t kHelloTtl = 1;
constexpr size_t kParallelRequests = 4;
constexpr common::Duration kRequestTimeout = common::Duration::seconds(3.0);
/// Remembered far-peer bitmaps (from HELLOs heard long ago).
constexpr common::Duration kCloseTtl = common::Duration::seconds(6.0);

}  // namespace

HelloRelay::HelloRelay(ip::Node& node) : node_(node) {
  node_.register_handler(ip::Proto::kHello,
                         [this](const ip::Packet& p) { on_hello(p); });
}

void HelloRelay::on_hello(const ip::Packet& packet) {
  if (packet.ttl == 0 || packet.payload.size() < 5) return;
  uint32_t seq = static_cast<uint32_t>(
      common::read_be(common::BytesView(packet.payload.data(), 4), 0, 4));
  if (!seen_.insert({packet.src, seq}).second) return;
  if (seen_.size() > 8192) seen_.clear();  // crude bound; dupes re-relay rarely
  ip::Packet relay = packet;
  relay.ttl -= 1;
  node_.send_link(std::move(relay), "bithoc-hello");
}

BithocPeer::BithocPeer(sim::Scheduler& sched, sim::Medium& medium,
                       sim::MobilityModel* mobility, common::Rng rng,
                       std::shared_ptr<Collection> collection, bool seed)
    : sched_(sched),
      rng_(rng),
      node_(sched, medium, mobility, rng_.fork()),
      tcp_(node_),
      collection_(std::move(collection)),
      have_(collection_->total_packets()) {
  auto dsdv = std::make_unique<manet::Dsdv>();
  dsdv_ = dsdv.get();
  node_.set_routing(std::move(dsdv));

  if (seed) {
    for (size_t i = 0; i < have_.size(); ++i) have_.set(i);
    completed_at_ = sched_.now();
  }

  node_.register_handler(ip::Proto::kHello,
                         [this](const ip::Packet& p) { on_hello(p); });
  tcp_.set_receive_callback(
      [this](Address peer, const common::Bytes& m) { on_tcp_message(peer, m); });
  tcp_.set_failure_callback([this](Address peer) {
    ++stats_.tcp_failures;
    for (auto it = in_flight_.begin(); it != in_flight_.end();) {
      it = it->second == peer ? in_flight_.erase(it) : ++it;
    }
    pump();
  });
}

void BithocPeer::start() {
  common::Duration initial =
      common::Duration::microseconds(static_cast<int64_t>(rng_.next_below(
          static_cast<uint64_t>(kHelloPeriod.us))));
  sched_.schedule(initial, [this] { hello_tick(); });
}

void BithocPeer::hello_tick() {
  ip::Packet hello;
  hello.src = node_.address();
  hello.dst = ip::kBroadcast;
  hello.next_hop = ip::kBroadcast;
  hello.proto = ip::Proto::kHello;
  hello.ttl = kHelloTtl;
  hello.payload = encode_hello(hello_seq_++, kHelloTtl, have_);
  ++stats_.hellos_sent;
  node_.send_link(std::move(hello), "bithoc-hello");

  pump();

  common::Duration jitter =
      common::Duration::microseconds(static_cast<int64_t>(rng_.next_below(
          static_cast<uint64_t>(kHelloPeriod.us / 4) + 1)));
  sched_.schedule(kHelloPeriod + jitter, [this] { hello_tick(); });
}

void BithocPeer::on_hello(const ip::Packet& packet) {
  auto hello = decode_hello(
      common::BytesView(packet.payload.data(), packet.payload.size()));
  if (!hello || packet.src == node_.address()) return;

  uint8_t hops = static_cast<uint8_t>(hello->orig_ttl - packet.ttl + 1);
  known_peers_[packet.src] =
      KnownPeer{hello->bitmap, sched_.now(), hops};

  // Scoped re-flooding (peers relay too).
  if (packet.ttl > 0 && seen_hellos_.insert({packet.src, hello->seq}).second) {
    ip::Packet relay = packet;
    relay.ttl -= 1;
    node_.send_link(std::move(relay), "bithoc-hello");
  }
  pump();
}

std::optional<std::pair<size_t, Address>> BithocPeer::pick_close_piece()
    const {
  // Rarest piece first across fresh close neighbors.
  common::TimePoint now = sched_.now();
  std::optional<size_t> best_piece;
  size_t best_count = SIZE_MAX;
  Address best_holder = ip::kInvalid;

  std::vector<const KnownPeer*> close;
  std::vector<Address> close_addr;
  for (const auto& [addr, kp] : known_peers_) {
    if (now - kp.heard <= kCloseTtl && kp.hops <= 2) {
      close.push_back(&kp);
      close_addr.push_back(addr);
    }
  }
  if (close.empty()) return std::nullopt;

  for (size_t piece = 0; piece < have_.size(); ++piece) {
    if (have_.test(piece) || in_flight_.contains(piece)) continue;
    size_t holders = 0;
    Address holder = ip::kInvalid;
    uint8_t holder_hops = 255;
    for (size_t i = 0; i < close.size(); ++i) {
      if (piece < close[i]->bitmap.size() && close[i]->bitmap.test(piece)) {
        ++holders;
        if (close[i]->hops < holder_hops) {
          holder = close_addr[i];
          holder_hops = close[i]->hops;
        }
      }
    }
    if (holders == 0) continue;
    if (holders < best_count) {
      best_count = holders;
      best_piece = piece;
      best_holder = holder;
    }
  }
  if (!best_piece) return std::nullopt;
  return std::make_pair(*best_piece, best_holder);
}

std::optional<std::pair<size_t, Address>> BithocPeer::pick_far_piece() const {
  // Pieces nobody close has: ask a remembered far peer with a live route.
  for (size_t piece = 0; piece < have_.size(); ++piece) {
    if (have_.test(piece) || in_flight_.contains(piece)) continue;
    for (const auto& [addr, kp] : known_peers_) {
      if (piece >= kp.bitmap.size() || !kp.bitmap.test(piece)) continue;
      if (!dsdv_->has_route(addr)) continue;
      return std::make_pair(piece, addr);
    }
  }
  return std::nullopt;
}

void BithocPeer::pump() {
  if (completed_at_ && have_.full()) return;
  while (in_flight_.size() < kParallelRequests) {
    auto pick = pick_close_piece();
    if (!pick) pick = pick_far_piece();
    if (!pick) return;
    request_piece(pick->first, pick->second);
  }
}

void BithocPeer::request_piece(size_t piece, Address holder) {
  in_flight_[piece] = holder;
  ++stats_.pieces_requested;
  common::Bytes msg;
  msg.push_back(kMsgRequest);
  common::append_be(msg, piece, 4);
  tcp_.send(holder, std::move(msg));

  sched_.schedule(kRequestTimeout, [this, piece] {
    auto it = in_flight_.find(piece);
    if (it == in_flight_.end()) return;
    in_flight_.erase(it);
    ++stats_.request_timeouts;
    pump();
  });
}

void BithocPeer::on_tcp_message(Address peer, const common::Bytes& message) {
  if (message.size() < 5) return;
  uint8_t type = message[0];
  size_t piece = static_cast<size_t>(
      common::read_be(common::BytesView(message.data(), message.size()), 1, 4));

  if (type == kMsgRequest) {
    if (piece >= have_.size() || !have_.test(piece)) return;
    ++stats_.pieces_served;
    common::Bytes reply;
    reply.push_back(kMsgPiece);
    common::append_be(reply, piece, 4);
    common::Bytes payload = collection_->payload(piece);
    reply.insert(reply.end(), payload.begin(), payload.end());
    tcp_.send(peer, std::move(reply));
    return;
  }

  if (type == kMsgPiece) {
    in_flight_.erase(piece);
    if (piece < have_.size() && !have_.test(piece)) {
      have_.set(piece);
      ++stats_.pieces_received;
      complete_check();
    }
    pump();
  }
}

void BithocPeer::complete_check() {
  if (completed_at_ || !have_.full()) return;
  completed_at_ = sched_.now();
  if (on_complete_) on_complete_(*completed_at_);
}

size_t BithocPeer::state_bytes() const {
  size_t bytes = (have_.size() + 7) / 8;
  for (const auto& [addr, kp] : known_peers_) {
    bytes += sizeof(Address) + (kp.bitmap.size() + 7) / 8 + 16;
  }
  bytes += dsdv_->table_size() * 24;
  return bytes;
}

}  // namespace dapes::baselines
