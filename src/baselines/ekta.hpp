// Ekta — a DHT substrate for MANETs (Pucha, Das & Hu, 2004). The paper's
// second IP-based comparison point.
//
// Ekta integrates a Pastry-style key space with DSR at the network layer.
// Holders PUT (object -> holder) mappings at the object key's home node
// (the member whose DHT id is numerically closest to the key);
// downloaders GET holder lists, then fetch pieces from holders over UDP.
// Every control and data message is routed by DSR, so reactive route
// discovery, DHT maintenance and per-receiver unicast all show up as the
// overhead the paper measures.
//
// Simplifications kept at the paper's swarm scale (24 peers), recorded in
// DESIGN.md:
//   * nodes know the member list, so key-space routing collapses to
//     "send to the numerically closest member" — DSR still has to find
//     the physical multi-hop path, which is where Ekta's cost lives;
//   * DHT objects are files (not packets): holders announce files they
//     hold pieces of, and piece requests carry a want-bitmap so the
//     holder returns any piece the requester is missing.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "dapes/bitmap.hpp"
#include "dapes/collection.hpp"
#include "ip/node.hpp"
#include "ip/udp.hpp"
#include "manet/dsr.hpp"

namespace dapes::baselines {

using core::Bitmap;
using core::Collection;
using ip::Address;

class EktaPeer {
 public:
  EktaPeer(sim::Scheduler& sched, sim::Medium& medium,
           sim::MobilityModel* mobility, common::Rng rng,
           std::shared_ptr<Collection> collection, bool seed);

  /// All peers must be registered with each other before start() (the
  /// bootstrap member list).
  void add_member(Address member);
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

  struct Stats {
    uint64_t puts_sent = 0;
    uint64_t gets_sent = 0;
    uint64_t replies_sent = 0;
    uint64_t pieces_requested = 0;
    uint64_t pieces_received = 0;
    uint64_t pieces_served = 0;
    uint64_t timeouts = 0;
  };
  const Stats& stats() const { return stats_; }

  size_t state_bytes() const;

  /// DHT id of an address (uniform via SplitMix finalizer).
  static uint64_t dht_id(Address address);
  /// Key of a file index within this collection.
  uint64_t file_key(size_t file_index) const;

 private:
  void publish_tick();
  void pump();
  void request_from(size_t file_index, Address holder);
  Address pick_holder(const std::vector<Address>& holders) const;
  void schedule_request_timeout(uint32_t req_id);
  void on_dht(Address peer, const common::Bytes& datagram);
  void on_transfer(Address peer, const common::Bytes& datagram);
  Address home_of(uint64_t key) const;
  void complete_check();

  /// Files this peer holds at least one piece of.
  std::vector<size_t> held_files() const;
  /// Within-file bitmap of missing pieces (bit set = wanted).
  Bitmap want_bitmap(size_t file_index) const;
  size_t file_offset(size_t file_index) const;
  size_t file_packets(size_t file_index) const;

  sim::Scheduler& sched_;
  common::Rng rng_;
  ip::Node node_;
  manet::Dsr* dsr_ = nullptr;  // owned by node_
  ip::UdpLite udp_;
  std::shared_ptr<Collection> collection_;
  Bitmap have_;
  std::vector<Address> members_;

  // Downloader state.
  struct HolderInfo {
    std::vector<Address> holders;
    common::TimePoint fetched{};
  };
  std::map<size_t, HolderInfo> holder_cache_;       // file -> holders
  std::set<size_t> gets_pending_;                   // file keys
  std::map<size_t, common::TimePoint> get_backoff_until_;
  struct PendingRequest {
    Address holder = ip::kInvalid;
    size_t file_index = 0;
    int tries = 0;
  };
  std::map<uint32_t, PendingRequest> in_flight_;    // req_id -> request
  uint32_t next_req_id_ = 1;

  // Home-node store: file -> holders that PUT here.
  std::map<size_t, std::set<Address>> store_;
  bool publish_dirty_ = true;

  common::TimePoint last_full_publish_{-1'000'000'000};
  std::optional<common::TimePoint> completed_at_;
  std::function<void(common::TimePoint)> on_complete_;
  Stats stats_;
};

}  // namespace dapes::baselines
