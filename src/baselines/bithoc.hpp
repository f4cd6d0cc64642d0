// Bithoc — BitTorrent for wireless ad-hoc networks (Krifa et al. 2009,
// Sbai et al. 2008). The paper's first IP-based comparison point.
//
// Peers discover each other and the pieces they hold through periodic
// scoped flooding of HELLO messages (TTL 2 = the "close" neighborhood).
// Pieces are fetched Rarest-Piece-First from close neighbors over TCP;
// pieces unavailable nearby are requested from "far" peers remembered
// from older HELLOs, reachable via DSDV routes. All the overhead sources
// the paper attributes to Bithoc are live here: proactive DSDV dumps,
// application-layer flooding, TCP (re)transmissions over lossy multi-hop
// paths, and per-receiver unicast (no broadcast utility).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>

#include "dapes/bitmap.hpp"
#include "dapes/collection.hpp"
#include "ip/node.hpp"
#include "ip/tcp.hpp"
#include "manet/dsdv.hpp"

namespace dapes::baselines {

using core::Bitmap;
using core::Collection;
using ip::Address;

/// Relays Bithoc HELLO floods on nodes that are not Bithoc peers (the
/// topology's 20 forwarding nodes rebroadcast scoped floods as well as
/// routing unicast).
class HelloRelay {
 public:
  explicit HelloRelay(ip::Node& node);

 private:
  void on_hello(const ip::Packet& packet);
  ip::Node& node_;
  std::set<std::pair<Address, uint32_t>> seen_;
};

class BithocPeer {
 public:
  BithocPeer(sim::Scheduler& sched, sim::Medium& medium,
             sim::MobilityModel* mobility, common::Rng rng,
             std::shared_ptr<Collection> collection, bool seed);

  void start();

  bool complete() const { return completed_at_.has_value(); }
  std::optional<common::TimePoint> completion_time() const {
    return completed_at_;
  }
  double progress() const {
    return have_.empty() ? 0.0 : have_.completeness();
  }
  void set_completion_callback(std::function<void(common::TimePoint)> cb) {
    on_complete_ = std::move(cb);
  }

  Address address() const { return node_.address(); }
  const ip::Node& node() const { return node_; }

  struct Stats {
    uint64_t hellos_sent = 0;
    uint64_t pieces_requested = 0;
    uint64_t pieces_received = 0;
    uint64_t pieces_served = 0;
    uint64_t request_timeouts = 0;
    uint64_t tcp_failures = 0;
  };
  const Stats& stats() const { return stats_; }

  /// Modeled protocol state (bitmaps + routing table), bytes.
  size_t state_bytes() const;

 private:
  struct KnownPeer {
    Bitmap bitmap;
    common::TimePoint heard{};
    uint8_t hops = 0;
  };

  void hello_tick();
  void on_hello(const ip::Packet& packet);
  void on_tcp_message(Address peer, const common::Bytes& message);
  void pump();
  std::optional<std::pair<size_t, Address>> pick_close_piece() const;
  std::optional<std::pair<size_t, Address>> pick_far_piece() const;
  void request_piece(size_t piece, Address holder);
  void complete_check();

  sim::Scheduler& sched_;
  common::Rng rng_;
  ip::Node node_;
  manet::Dsdv* dsdv_ = nullptr;  // owned by node_
  ip::TcpLite tcp_;
  std::shared_ptr<Collection> collection_;
  Bitmap have_;
  std::map<Address, KnownPeer> known_peers_;
  std::set<std::pair<Address, uint32_t>> seen_hellos_;
  std::map<size_t, Address> in_flight_;  // piece -> holder
  uint32_t hello_seq_ = 0;
  std::optional<common::TimePoint> completed_at_;
  std::function<void(common::TimePoint)> on_complete_;
  Stats stats_;
};

}  // namespace dapes::baselines
