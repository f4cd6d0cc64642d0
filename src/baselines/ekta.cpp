#include "baselines/ekta.hpp"

#include <algorithm>

namespace dapes::baselines {

namespace {

constexpr uint16_t kDhtPort = 1;
constexpr uint16_t kTransferPort = 2;

// DHT datagrams: [type(1)][count(2)][file(4)...]                  PUT
//                [type(1)][count(2)][file(4)...]                  GET
//                [type(1)][entries(2)]{[file(4)][n(2)][addr..]}   REPLY
// Transfer:      [type(1)][req(4)][file(4)][want-bitmap]          REQ
//                [type(1)][req(4)][piece(4)][payload]             PIECE
//                piece = 0xffffffff means "nothing you want here".
constexpr uint8_t kPut = 1;
constexpr uint8_t kGet = 2;
constexpr uint8_t kReply = 3;
constexpr uint8_t kReq = 4;
constexpr uint8_t kPiece = 5;
constexpr uint32_t kNoPiece = 0xffffffff;

constexpr size_t kParallelRequests = 4;
constexpr common::Duration kRequestTimeout = common::Duration::seconds(2.0);
constexpr common::Duration kGetTimeout = common::Duration::seconds(2.0);
/// Holder lists this old are re-queried.
constexpr common::Duration kHolderTtl = common::Duration::seconds(30.0);
/// Per-file spacing between repeated GETs for the same key.
constexpr common::Duration kGetBackoff = common::Duration::seconds(5.0);
/// Scheduler cadence for publishing and fetch pumping.
constexpr common::Duration kPublishPeriod = common::Duration::seconds(2.0);
/// Full re-announcement period (PUTs are unreliable datagrams).
constexpr common::Duration kRepublishPeriod = common::Duration::seconds(30.0);
constexpr int kMaxRequestRetries = 3;

}  // namespace

uint64_t EktaPeer::dht_id(Address address) {
  uint64_t x = address + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

uint64_t EktaPeer::file_key(size_t file_index) const {
  uint64_t x = file_index * 0x9e3779b97f4a7c15ULL + 0x1234567;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  return x ^ (x >> 31);
}

EktaPeer::EktaPeer(sim::Scheduler& sched, sim::Medium& medium,
                   sim::MobilityModel* mobility, common::Rng rng,
                   std::shared_ptr<Collection> collection, bool seed)
    : sched_(sched),
      rng_(rng),
      node_(sched, medium, mobility, rng_.fork()),
      udp_(node_),
      collection_(std::move(collection)),
      have_(collection_->total_packets()) {
  auto dsr = std::make_unique<manet::Dsr>();
  dsr_ = dsr.get();
  node_.set_routing(std::move(dsr));

  if (seed) {
    for (size_t i = 0; i < have_.size(); ++i) have_.set(i);
    completed_at_ = sched_.now();
  }

  udp_.bind(kDhtPort, [this](Address peer, uint16_t, const common::Bytes& d) {
    on_dht(peer, d);
  });
  udp_.bind(kTransferPort,
            [this](Address peer, uint16_t, const common::Bytes& d) {
              on_transfer(peer, d);
            });
}

void EktaPeer::add_member(Address member) {
  if (std::find(members_.begin(), members_.end(), member) == members_.end()) {
    members_.push_back(member);
  }
}

void EktaPeer::start() {
  common::Duration initial =
      common::Duration::microseconds(static_cast<int64_t>(rng_.next_below(
          static_cast<uint64_t>(kPublishPeriod.us))));
  sched_.schedule(initial, [this] { publish_tick(); });
}

Address EktaPeer::home_of(uint64_t key) const {
  Address best = node_.address();
  uint64_t best_dist = ~uint64_t{0};
  for (Address m : members_) {
    uint64_t dist = dht_id(m) ^ key;
    if (dist < best_dist) {
      best_dist = dist;
      best = m;
    }
  }
  return best;
}

size_t EktaPeer::file_offset(size_t file_index) const {
  size_t offset = 0;
  const auto& files = collection_->layout().files();
  for (size_t i = 0; i < file_index && i < files.size(); ++i) {
    offset += files[i].packet_count;
  }
  return offset;
}

size_t EktaPeer::file_packets(size_t file_index) const {
  return collection_->layout().file(file_index).packet_count;
}

std::vector<size_t> EktaPeer::held_files() const {
  std::vector<size_t> out;
  const auto& files = collection_->layout().files();
  size_t offset = 0;
  for (size_t f = 0; f < files.size(); ++f) {
    for (size_t i = 0; i < files[f].packet_count; ++i) {
      if (have_.test(offset + i)) {
        out.push_back(f);
        break;
      }
    }
    offset += files[f].packet_count;
  }
  return out;
}

Bitmap EktaPeer::want_bitmap(size_t file_index) const {
  size_t offset = file_offset(file_index);
  size_t count = file_packets(file_index);
  Bitmap want(count);
  for (size_t i = 0; i < count; ++i) {
    if (!have_.test(offset + i)) want.set(i);
  }
  return want;
}

void EktaPeer::publish_tick() {
  common::TimePoint now = sched_.now();
  if (publish_dirty_ ||
      now - last_full_publish_ >= kRepublishPeriod) {
    publish_dirty_ = false;
    last_full_publish_ = now;
    std::map<Address, std::vector<size_t>> by_home;
    for (size_t f : held_files()) {
      Address home = home_of(file_key(f));
      if (home == node_.address()) {
        store_[f].insert(node_.address());
      } else {
        by_home[home].push_back(f);
      }
    }
    for (auto& [home, files] : by_home) {
      common::Bytes msg;
      msg.push_back(kPut);
      common::append_be(msg, files.size(), 2);
      for (size_t f : files) common::append_be(msg, f, 4);
      ++stats_.puts_sent;
      udp_.send(home, kDhtPort, kDhtPort, std::move(msg));
    }
  }

  pump();

  common::Duration jitter =
      common::Duration::microseconds(static_cast<int64_t>(rng_.next_below(
          static_cast<uint64_t>(kPublishPeriod.us / 4) + 1)));
  sched_.schedule(kPublishPeriod + jitter, [this] { publish_tick(); });
}

void EktaPeer::pump() {
  if (completed_at_ && have_.full()) return;
  common::TimePoint now = sched_.now();

  const size_t file_count = collection_->layout().file_count();
  std::map<Address, std::vector<size_t>> gets_by_home;

  // Files with missing pieces, in a rotating order so parallel requests
  // spread across files.
  std::vector<size_t> incomplete;
  for (size_t f = 0; f < file_count; ++f) {
    if (!want_bitmap(f).none()) incomplete.push_back(f);
  }
  if (incomplete.empty()) return;

  for (size_t f : incomplete) {
    auto hit = holder_cache_.find(f);
    bool fresh = hit != holder_cache_.end() &&
                 now - hit->second.fetched <= kHolderTtl &&
                 !hit->second.holders.empty();
    if (!fresh && !gets_pending_.contains(f)) {
      auto bit = get_backoff_until_.find(f);
      if (bit == get_backoff_until_.end() || bit->second <= now) {
        Address home = home_of(file_key(f));
        if (home == node_.address()) {
          auto sit = store_.find(f);
          if (sit != store_.end() && !sit->second.empty()) {
            HolderInfo info;
            info.holders.assign(sit->second.begin(), sit->second.end());
            info.fetched = now;
            holder_cache_[f] = std::move(info);
          }
        } else {
          gets_pending_.insert(f);
          get_backoff_until_[f] = now + kGetBackoff;
          gets_by_home[home].push_back(f);
        }
      }
    }
  }
  for (auto& [home, files] : gets_by_home) {
    common::Bytes msg;
    msg.push_back(kGet);
    common::append_be(msg, files.size(), 2);
    for (size_t f : files) common::append_be(msg, f, 4);
    ++stats_.gets_sent;
    udp_.send(home, kDhtPort, kDhtPort, std::move(msg));
    auto pending = files;
    sched_.schedule(kGetTimeout, [this, pending] {
      bool any = false;
      for (size_t f : pending) any |= gets_pending_.erase(f) > 0;
      if (any) ++stats_.timeouts;
    });
  }

  // Launch piece requests round-robin over incomplete files with fresh
  // holder lists. Prefer holders we already have a live DSR route to —
  // every new holder otherwise costs a route discovery flood.
  size_t start = rng_.next_below(incomplete.size());
  for (size_t k = 0;
       k < incomplete.size() &&
       in_flight_.size() < kParallelRequests;
       ++k) {
    size_t f = incomplete[(start + k) % incomplete.size()];
    auto hit = holder_cache_.find(f);
    if (hit == holder_cache_.end() || hit->second.holders.empty()) continue;
    if (now - hit->second.fetched > kHolderTtl) continue;
    Address holder = pick_holder(hit->second.holders);
    if (holder == ip::kInvalid || holder == node_.address()) continue;
    request_from(f, holder);
  }
}

Address EktaPeer::pick_holder(const std::vector<Address>& holders) const {
  std::vector<Address> routed;
  for (Address h : holders) {
    if (h != node_.address() && dsr_->has_route(h)) routed.push_back(h);
  }
  const std::vector<Address>& pool = routed.empty() ? holders : routed;
  if (pool.empty()) return ip::kInvalid;
  return pool[const_cast<common::Rng&>(rng_).next_below(pool.size())];
}

void EktaPeer::request_from(size_t file_index, Address holder) {
  uint32_t req_id = next_req_id_++;
  in_flight_[req_id] = PendingRequest{holder, file_index, 0};
  ++stats_.pieces_requested;
  common::Bytes msg;
  msg.push_back(kReq);
  common::append_be(msg, req_id, 4);
  common::append_be(msg, file_index, 4);
  common::Bytes want = want_bitmap(file_index).encode();
  msg.insert(msg.end(), want.begin(), want.end());
  udp_.send(holder, kTransferPort, kTransferPort, std::move(msg));
  schedule_request_timeout(req_id);
}

void EktaPeer::schedule_request_timeout(uint32_t req_id) {
  sched_.schedule(kRequestTimeout, [this, req_id] {
    auto it = in_flight_.find(req_id);
    if (it == in_flight_.end()) return;
    PendingRequest req = it->second;
    in_flight_.erase(it);
    ++stats_.timeouts;
    if (req.tries + 1 <= kMaxRequestRetries) {
      // Rotate to another holder if any (route-aware).
      auto hit = holder_cache_.find(req.file_index);
      Address holder = req.holder;
      if (hit != holder_cache_.end() && hit->second.holders.size() > 1) {
        Address candidate = pick_holder(hit->second.holders);
        if (candidate != ip::kInvalid) holder = candidate;
      }
      uint32_t new_id = next_req_id_++;
      in_flight_[new_id] =
          PendingRequest{holder, req.file_index, req.tries + 1};
      common::Bytes msg;
      msg.push_back(kReq);
      common::append_be(msg, new_id, 4);
      common::append_be(msg, req.file_index, 4);
      common::Bytes want = want_bitmap(req.file_index).encode();
      msg.insert(msg.end(), want.begin(), want.end());
      udp_.send(holder, kTransferPort, kTransferPort, std::move(msg));
      schedule_request_timeout(new_id);
    } else {
      // Holder list is probably stale: force a new lookup.
      holder_cache_.erase(req.file_index);
      pump();
    }
  });
}

void EktaPeer::on_dht(Address peer, const common::Bytes& datagram) {
  common::BytesView d(datagram.data(), datagram.size());
  if (d.empty()) return;
  switch (d[0]) {
    case kPut: {
      if (d.size() < 3) return;
      size_t count = common::read_be(d, 1, 2);
      if (d.size() != 3 + 4 * count) return;
      for (size_t i = 0; i < count; ++i) {
        size_t f = static_cast<size_t>(common::read_be(d, 3 + 4 * i, 4));
        store_[f].insert(peer);
      }
      break;
    }
    case kGet: {
      if (d.size() < 3) return;
      size_t count = common::read_be(d, 1, 2);
      if (d.size() != 3 + 4 * count) return;
      common::Bytes reply;
      reply.push_back(kReply);
      common::append_be(reply, count, 2);
      for (size_t i = 0; i < count; ++i) {
        size_t f = static_cast<size_t>(common::read_be(d, 3 + 4 * i, 4));
        auto it = store_.find(f);
        size_t holders = it == store_.end() ? 0 : it->second.size();
        common::append_be(reply, f, 4);
        common::append_be(reply, holders, 2);
        if (it != store_.end()) {
          for (Address holder : it->second) {
            common::append_be(reply, holder, 4);
          }
        }
      }
      ++stats_.replies_sent;
      udp_.send(peer, kDhtPort, kDhtPort, std::move(reply));
      break;
    }
    case kReply: {
      if (d.size() < 3) return;
      size_t entries = common::read_be(d, 1, 2);
      size_t offset = 3;
      for (size_t e = 0; e < entries; ++e) {
        if (offset + 6 > d.size()) return;
        size_t f = static_cast<size_t>(common::read_be(d, offset, 4));
        size_t count = common::read_be(d, offset + 4, 2);
        offset += 6;
        if (offset + 4 * count > d.size()) return;
        gets_pending_.erase(f);
        HolderInfo info;
        info.fetched = sched_.now();
        for (size_t i = 0; i < count; ++i) {
          info.holders.push_back(
              static_cast<Address>(common::read_be(d, offset, 4)));
          offset += 4;
        }
        if (!info.holders.empty()) {
          holder_cache_[f] = std::move(info);
        }
      }
      pump();
      break;
    }
    default:
      break;
  }
}

void EktaPeer::on_transfer(Address peer, const common::Bytes& datagram) {
  common::BytesView d(datagram.data(), datagram.size());
  if (d.size() < 9) return;
  uint32_t req_id = static_cast<uint32_t>(common::read_be(d, 1, 4));

  if (d[0] == kReq) {
    size_t file_index = static_cast<size_t>(common::read_be(d, 5, 4));
    if (file_index >= collection_->layout().file_count()) return;
    auto want = Bitmap::decode(d.subspan(9));
    if (!want) return;

    // Serve a random piece we hold from the requester's want set.
    size_t offset = file_offset(file_index);
    size_t count = file_packets(file_index);
    std::vector<size_t> candidates;
    for (size_t i = 0; i < count && i < want->size(); ++i) {
      if (want->test(i) && have_.test(offset + i)) candidates.push_back(i);
    }
    common::Bytes reply;
    reply.push_back(kPiece);
    common::append_be(reply, req_id, 4);
    if (candidates.empty()) {
      common::append_be(reply, kNoPiece, 4);
    } else {
      size_t within = candidates[rng_.next_below(candidates.size())];
      size_t global = offset + within;
      common::append_be(reply, global, 4);
      common::Bytes payload = collection_->payload(global);
      reply.insert(reply.end(), payload.begin(), payload.end());
      ++stats_.pieces_served;
    }
    udp_.send(peer, kTransferPort, kTransferPort, std::move(reply));
    return;
  }

  if (d[0] == kPiece) {
    auto it = in_flight_.find(req_id);
    if (it != in_flight_.end()) in_flight_.erase(it);
    uint32_t piece = static_cast<uint32_t>(common::read_be(d, 5, 4));
    if (piece != kNoPiece && piece < have_.size() && !have_.test(piece)) {
      have_.set(piece);
      publish_dirty_ = true;
      ++stats_.pieces_received;
      complete_check();
    }
    pump();
  }
}

void EktaPeer::complete_check() {
  if (completed_at_ || !have_.full()) return;
  completed_at_ = sched_.now();
  if (on_complete_) on_complete_(*completed_at_);
}

size_t EktaPeer::state_bytes() const {
  size_t bytes = (have_.size() + 7) / 8;
  bytes += holder_cache_.size() * 32;
  for (const auto& [file, holders] : store_) {
    bytes += 8 + holders.size() * 4;
  }
  bytes += dsr_->cache_size() * 40;
  return bytes;
}

}  // namespace dapes::baselines
