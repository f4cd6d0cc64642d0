// TCP-lite: reliable, ordered message delivery over the routed MANET.
//
// Bithoc transfers pieces over TCP (paper §VI-B). What matters for the
// evaluation is TCP's behaviour over lossy multi-hop wireless paths —
// retransmissions on loss, exponential RTO backoff, and connection
// failure when routes break (Holland & Vaidya 1999, cited by the paper).
// This implementation provides message-oriented reliable delivery with a
// small sliding window per connection; segments and ACKs all traverse the
// routing protocol and count as transmissions.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>

#include "ip/node.hpp"

namespace dapes::ip {

using common::Duration;

class TcpLite {
 public:
  /// A delivered application message (reassembled, ordered).
  using ReceiveCallback =
      std::function<void(Address peer, const common::Bytes& message)>;
  /// Connection-level failure (retries exhausted / route gone).
  using FailureCallback = std::function<void(Address peer)>;

  explicit TcpLite(Node& node);

  /// Queue an application message to @p peer; segments flow under the
  /// window with retransmission. Connections are implicit (created on
  /// first use, reset on failure).
  void send(Address peer, common::Bytes message);

  void set_receive_callback(ReceiveCallback cb) { on_receive_ = std::move(cb); }
  void set_failure_callback(FailureCallback cb) { on_failure_ = std::move(cb); }

  /// Total segment transmissions (including retransmissions) and ACKs.
  uint64_t segments_sent() const { return segments_sent_; }
  uint64_t retransmissions() const { return retransmissions_; }
  uint64_t acks_sent() const { return acks_sent_; }
  uint64_t failures() const { return failures_; }

 private:
  struct Segment {
    uint32_t seq = 0;
    common::Bytes payload;
    bool last_of_message = false;
    int retries = 0;
    Duration rto{};
    bool in_flight = false;
  };

  struct Connection {
    // Sender side.
    std::deque<Segment> send_queue;  // front = lowest unacked seq
    uint32_t next_seq = 0;
    // Receiver side.
    uint32_t expected_seq = 0;
    common::Bytes reassembly;
    std::map<uint32_t, std::pair<common::Bytes, bool>> out_of_order;
  };

  void on_packet(const Packet& packet);
  void pump(Address peer);
  void transmit(Address peer, Segment& segment);
  void schedule_rto(Address peer, uint32_t seq, Duration rto);
  void send_ack(Address peer, uint32_t ack_seq);
  void fail_connection(Address peer);

  Node& node_;
  std::map<Address, Connection> connections_;
  ReceiveCallback on_receive_;
  FailureCallback on_failure_;
  uint64_t segments_sent_ = 0;
  uint64_t retransmissions_ = 0;
  uint64_t acks_sent_ = 0;
  uint64_t failures_ = 0;
};

}  // namespace dapes::ip
