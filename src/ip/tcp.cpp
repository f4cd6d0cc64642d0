#include "ip/tcp.hpp"

namespace dapes::ip {

namespace {

// Segment wire format: [type(1)][seq(4)][flags(1)][len(4)][payload]
// type: 1 = data, 2 = ack (seq = cumulative ack, no payload)
constexpr uint8_t kTypeData = 1;
constexpr uint8_t kTypeAck = 2;
constexpr uint8_t kFlagLast = 0x01;

constexpr size_t kWindow = 4;  // outstanding segments
constexpr size_t kMss = 1200;  // max payload bytes per segment
constexpr Duration kRtoInitial = Duration::milliseconds(600);
constexpr Duration kRtoMax = Duration::seconds(8.0);
constexpr int kMaxRetries = 6;

common::Bytes encode_segment(uint8_t type, uint32_t seq, uint8_t flags,
                             common::BytesView payload) {
  common::Bytes out;
  out.push_back(type);
  common::append_be(out, seq, 4);
  out.push_back(flags);
  common::append_be(out, payload.size(), 4);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

}  // namespace

TcpLite::TcpLite(Node& node) : node_(node) {
  node_.register_handler(Proto::kTcp,
                         [this](const Packet& p) { on_packet(p); });
}

void TcpLite::send(Address peer, common::Bytes message) {
  Connection& conn = connections_[peer];
  size_t offset = 0;
  do {
    size_t len = std::min(kMss, message.size() - offset);
    Segment seg;
    seg.seq = conn.next_seq++;
    seg.payload.assign(message.begin() + offset, message.begin() + offset + len);
    offset += len;
    seg.last_of_message = offset >= message.size();
    seg.rto = kRtoInitial;
    conn.send_queue.push_back(std::move(seg));
  } while (offset < message.size());
  pump(peer);
}

void TcpLite::pump(Address peer) {
  Connection& conn = connections_[peer];
  size_t in_flight = 0;
  for (auto& seg : conn.send_queue) {
    if (seg.in_flight) ++in_flight;
  }
  for (auto& seg : conn.send_queue) {
    if (in_flight >= kWindow) break;
    if (seg.in_flight) continue;
    transmit(peer, seg);
    ++in_flight;
  }
}

void TcpLite::transmit(Address peer, Segment& segment) {
  segment.in_flight = true;
  Packet packet;
  packet.src = node_.address();
  packet.dst = peer;
  packet.proto = Proto::kTcp;
  packet.payload = encode_segment(
      kTypeData, segment.seq, segment.last_of_message ? kFlagLast : 0,
      common::BytesView(segment.payload.data(), segment.payload.size()));
  if (segment.retries > 0) ++retransmissions_;
  node_.send_routed(std::move(packet));
  schedule_rto(peer, segment.seq, segment.rto);
}

void TcpLite::schedule_rto(Address peer, uint32_t seq, Duration rto) {
  node_.scheduler().schedule(rto, [this, peer, seq] {
    auto cit = connections_.find(peer);
    if (cit == connections_.end()) return;
    Connection& conn = cit->second;
    for (auto& seg : conn.send_queue) {
      if (seg.seq != seq) continue;
      // Still queued => unacked: back off and retransmit.
      if (++seg.retries > kMaxRetries) {
        fail_connection(peer);
        return;
      }
      seg.rto = Duration{std::min(seg.rto.us * 2, kRtoMax.us)};
      seg.in_flight = false;
      pump(peer);
      return;
    }
  });
}

void TcpLite::send_ack(Address peer, uint32_t ack_seq) {
  Packet packet;
  packet.src = node_.address();
  packet.dst = peer;
  packet.proto = Proto::kTcp;
  packet.payload = encode_segment(kTypeAck, ack_seq, 0, {});
  node_.send_routed(std::move(packet));
}

void TcpLite::fail_connection(Address peer) {
  ++failures_;
  connections_.erase(peer);
  if (on_failure_) on_failure_(peer);
}

void TcpLite::on_packet(const Packet& packet) {
  common::BytesView payload(packet.payload.data(), packet.payload.size());
  if (payload.size() < 10) return;
  uint8_t type = payload[0];
  uint32_t seq = static_cast<uint32_t>(common::read_be(payload, 1, 4));
  uint8_t flags = payload[5];
  size_t len = common::read_be(payload, 6, 4);
  if (payload.size() != 10 + len) return;
  Address peer = packet.src;
  Connection& conn = connections_[peer];

  if (type == kTypeAck) {
    // Cumulative: drop every queued segment with seq < ack.
    while (!conn.send_queue.empty() && conn.send_queue.front().seq < seq) {
      conn.send_queue.pop_front();
    }
    pump(peer);
    return;
  }

  // Data segment.
  bool last = (flags & kFlagLast) != 0;
  if (seq == conn.expected_seq) {
    conn.reassembly.insert(conn.reassembly.end(), payload.begin() + 10,
                           payload.end());
    conn.expected_seq += 1;
    if (last && on_receive_) {
      common::Bytes message = std::move(conn.reassembly);
      conn.reassembly.clear();
      on_receive_(peer, message);
    } else if (last) {
      conn.reassembly.clear();
    }
    // Drain any buffered in-order continuation.
    auto it = conn.out_of_order.find(conn.expected_seq);
    while (it != conn.out_of_order.end()) {
      conn.reassembly.insert(conn.reassembly.end(), it->second.first.begin(),
                             it->second.first.end());
      bool seg_last = it->second.second;
      conn.out_of_order.erase(it);
      conn.expected_seq += 1;
      if (seg_last) {
        common::Bytes message = std::move(conn.reassembly);
        conn.reassembly.clear();
        if (on_receive_) on_receive_(peer, message);
      }
      it = conn.out_of_order.find(conn.expected_seq);
    }
  } else if (seq > conn.expected_seq &&
             conn.out_of_order.size() < 4 * kWindow) {
    conn.out_of_order[seq] = {common::Bytes(payload.begin() + 10, payload.end()),
                              last};
  }
  send_ack(peer, conn.expected_seq);
}

}  // namespace dapes::ip
