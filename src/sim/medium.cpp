#include "sim/medium.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "trace/trace.hpp"

namespace dapes::sim {

Medium::Medium(Scheduler& sched, Params params, common::Rng rng)
    : sched_(sched),
      params_(params),
      channel_(make_channel_model(params.channel)),
      rng_(rng) {}

NodeId Medium::add_node(MobilityModel* mobility, ReceiveCallback on_receive,
                        bool alive) {
  if (mobility == nullptr) {
    throw std::invalid_argument("Medium::add_node: null mobility");
  }
  NodeEntry entry{mobility, std::move(on_receive), 1.0};
  entry.alive = alive;
  entry.joined = sched_.now();
  nodes_.push_back(std::move(entry));
  const NodeId id = static_cast<NodeId>(nodes_.size() - 1);
  if (alive) {
    DAPES_TRACE_EVENT(trace::EventType::kNodeJoin, id, /*revive=*/0);
  }
  return id;
}

void Medium::retire_node(NodeId node) {
  NodeEntry& entry = nodes_.at(node);
  if (!entry.alive) return;
  entry.alive = false;
  // No grid surgery needed: the node grid is a candidate index and every
  // query re-checks the exact predicate, which now rejects this node.
  DAPES_TRACE_EVENT(trace::EventType::kNodeLeave, node);
}

void Medium::revive_node(NodeId node) {
  NodeEntry& entry = nodes_.at(node);
  if (entry.alive) return;
  entry.alive = true;
  entry.joined = sched_.now();
  DAPES_TRACE_EVENT(trace::EventType::kNodeJoin, node, /*revive=*/1);
}

size_t Medium::alive_count() const {
  size_t count = 0;
  for (const NodeEntry& entry : nodes_) {
    if (entry.alive) ++count;
  }
  return count;
}

void Medium::set_node_range_factor(NodeId node, double factor) {
  if (!(factor > 0.0)) {
    throw std::invalid_argument("Medium::set_node_range_factor: factor <= 0");
  }
  nodes_.at(node).range_factor = factor;
}

Duration Medium::frame_duration(size_t payload_bytes) const {
  return channel_->airtime(payload_bytes + params_.frame_overhead_bytes,
                           params_.data_rate_bps);
}

Vec2 Medium::position_of(NodeId node) const {
  return nodes_.at(node).mobility->position_at(sched_.now());
}

double Medium::range_of(NodeId node) const {
  return params_.range_m * nodes_.at(node).range_factor;
}

bool Medium::in_range(NodeId a, NodeId b) const {
  return within_range(position_of(a), position_of(b), range_of(a));
}

void Medium::ensure_node_grid() const {
  const TimePoint now = sched_.now();
  // Nodes are only ever appended, so a size match means no node joined
  // since the last build.
  bool fresh = node_grid_.size() == nodes_.size();
  if (fresh) {
    // Rebuild once nodes may have drifted more than a quarter cell:
    // queries inflate their radius by that drift, and keeping it small
    // keeps every query inside a 3x3-4x4 cell window. Rebuilds stay
    // cheap — O(n) every range/(4*max_speed) simulated seconds.
    double dt = (now - node_grid_time_).to_seconds();
    if (dt > 0.0 && node_grid_max_speed_ * dt > 0.25 * params_.range_m) {
      fresh = false;
    }
  }
  if (fresh) return;

  std::vector<Vec2> positions;
  positions.reserve(nodes_.size());
  node_grid_max_speed_ = 0.0;
  for (const NodeEntry& node : nodes_) {
    positions.push_back(node.mobility->position_at(now));
    node_grid_max_speed_ =
        std::max(node_grid_max_speed_, node.mobility->max_speed());
  }
  node_grid_.build(positions, params_.range_m);
  node_grid_time_ = now;
}

double Medium::node_grid_slack() const {
  double dt = (sched_.now() - node_grid_time_).to_seconds();
  return dt > 0.0 ? node_grid_max_speed_ * dt : 0.0;
}

template <typename Fn>
void Medium::for_each_in_range(Vec2 center, double radius_m, NodeId exclude,
                               Fn&& fn) const {
  const TimePoint now = sched_.now();
  if (params_.brute_force) {
    for (NodeId other = 0; other < nodes_.size(); ++other) {
      if (other == exclude || !nodes_[other].alive) continue;
      Vec2 p = nodes_[other].mobility->position_at(now);
      if (within_range(center, p, radius_m)) fn(other, p);
    }
    return;
  }
  ensure_node_grid();
  node_grid_.for_each_candidate(
      center, radius_m + node_grid_slack(), [&](uint64_t id, Vec2) {
        NodeId other = static_cast<NodeId>(id);
        if (other == exclude || !nodes_[other].alive) return;
        Vec2 p = nodes_[other].mobility->position_at(now);
        if (within_range(center, p, radius_m)) fn(other, p);
      });
}

std::vector<NodeId> Medium::neighbors_of(NodeId node) const {
  std::vector<NodeId> out;
  for_each_in_range(position_of(node), range_of(node), node,
                    [&](NodeId other, Vec2) { out.push_back(other); });
  // The reference scans in ascending NodeId order; match it exactly
  // (already sorted in brute mode, so this is a no-op there).
  std::sort(out.begin(), out.end());
  return out;
}

size_t Medium::degree_of(NodeId node) const {
  size_t degree = 0;
  for_each_in_range(position_of(node), range_of(node), node,
                    [&](NodeId, Vec2) { ++degree; });
  return degree;
}

void Medium::transmit(FramePtr frame, SendCompleteCallback on_complete) {
  if (!frame) {
    throw std::invalid_argument("Medium::transmit: null frame");
  }
  const NodeId sender = frame->sender;
  if (!nodes_.at(sender).alive) {
    // A retired node transmitting means its teardown missed a timer —
    // fail loudly rather than let a ghost keep jamming the channel.
    throw std::logic_error("Medium::transmit: sender " +
                           std::to_string(sender) + " is retired");
  }
  const TimePoint start = sched_.now();
  const Vec2 sender_pos = position_of(sender);

  // SIR-adaptive bitrate: the sender estimates its worst-case SIR at the
  // nominal-range edge (own margin 0 dB there) from the in-flight
  // transmissions audible at its own position and lets the channel model
  // pick a rate tier. An order-independent max fold over the full active
  // set, evaluated identically in grid and brute modes, from start-time
  // state only — so the chosen rate (and thus the end time) is a pure
  // function of the transmission's start state.
  double rate_bps = params_.data_rate_bps;
  if (channel_->adaptive_rate()) {
    double strongest = -std::numeric_limits<double>::infinity();
    for (const auto& [other_id, other] : active_) {
      if (!within_range(sender_pos, other.sender_pos, other.coverage_m)) {
        continue;
      }
      strongest = std::max(
          strongest, channel_->signal_margin_db(
                         distance(sender_pos, other.sender_pos),
                         other.range_m));
    }
    // No audible interferer -> SIR is +inf and the full rate wins.
    rate_bps = channel_->select_rate_bps(params_.data_rate_bps, -strongest);
  }
  const TimePoint end =
      start +
      channel_->airtime(frame->payload.size() + params_.frame_overhead_bytes,
                        rate_bps) +
      params_.propagation;

  ++stats_.transmissions;
  stats_.bytes_sent += frame->payload.size() + params_.frame_overhead_bytes;
  ++stats_.tx_by_kind[frame->kind];

  uint64_t id = next_tx_id_++;
  DAPES_TRACE_EVENT(trace::EventType::kMediumTx, sender, id,
                    frame->payload.size());
  ActiveTx tx;
  tx.id = id;
  tx.frame = frame;
  tx.sender_pos = sender_pos;
  tx.range_m = range_of(sender);
  tx.coverage_m = channel_->coverage_m(tx.range_m);
  tx.start = start;
  tx.end = end;
  tx.on_complete = std::move(on_complete);

  // Mutual collision marking with every transmission currently in flight.
  // Overlap is decided at start time: a new frame overlaps exactly the
  // set of frames still active now. A collider out of earshot of every
  // receiver is skipped by deliver_one's audibility check, so no pruning
  // radius is needed.
  for (auto& [other_id, other] : active_) {
    other.colliders.push_back({tx.sender_pos, tx.coverage_m, tx.range_m});
    tx.colliders.push_back({other.sender_pos, other.coverage_m, other.range_m});
  }

  // Capture the exact in-coverage receiver set now (start == now), in
  // ascending id order so the per-receiver draws consume the medium RNG
  // in a fixed sequence.
  for_each_in_range(tx.sender_pos, tx.coverage_m, sender,
                    [&](NodeId receiver, Vec2 rp) {
                      tx.receivers.push_back({receiver, rp});
                    });
  std::sort(tx.receivers.begin(), tx.receivers.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });

  active_.emplace(id, std::move(tx));
  // Deliveries are unowned: a frame already on the air must still reach
  // its receivers when cancel_for_node sweeps a sender that died
  // mid-flight (the dead sender's completion callback is skipped in
  // deliver instead).
  Scheduler::OwnerScope unowned(sched_, Scheduler::kNoOwner);
  sched_.schedule_at(end, [this, id] { deliver(id); });
}

bool Medium::busy_for(NodeId node) const {
  const Vec2 p = position_of(node);
  for (const auto& [id, tx] : active_) {
    if (within_range(p, tx.sender_pos, tx.coverage_m)) return true;
  }
  return false;
}

TimePoint Medium::busy_until(NodeId node) const {
  const Vec2 p = position_of(node);
  TimePoint latest = sched_.now();
  for (const auto& [id, tx] : active_) {
    if (within_range(p, tx.sender_pos, tx.coverage_m) && tx.end > latest) {
      latest = tx.end;
    }
  }
  return latest;
}

void Medium::deliver(uint64_t tx_id) {
  auto it = active_.find(tx_id);
  if (it == active_.end()) return;
  ActiveTx tx = std::move(it->second);
  active_.erase(it);

  DAPES_TRACE_EVENT(trace::EventType::kMediumDeliver, tx.frame->sender,
                    tx.id);
  if (prewarm_) prewarm_->prewarm(*tx.frame);
  TxReport report;
  // The captured set only holds nodes alive at start; eligibility
  // re-checks against membership changes since.
  for (const auto& [receiver, rp] : tx.receivers) {
    if (!delivery_eligible(receiver, tx.start)) continue;
    deliver_one(tx, receiver, rp, report);
  }

  if (report.collided_anywhere()) ++stats_.collided_frames;
  // A sender retired mid-flight gets no completion callback: its radio
  // state was torn down, and resuming its CSMA chain would make a ghost
  // transmit (which the transmit guard turns into a throw).
  if (tx.on_complete && nodes_[tx.frame->sender].alive) {
    // The sender owns its completion handler, so the chain's follow-up
    // timers are cancellable by node and its records name it.
    Scheduler::OwnerScope own(sched_, tx.frame->sender);
    tx.on_complete(report);
  }
}

void Medium::deliver_one(const ActiveTx& tx, NodeId receiver,
                         Vec2 receiver_pos, TxReport& report) {
  ++report.receivers;

  // Collision: another overlapping transmission audible here corrupts
  // the frame unless the channel model's capture rule says our signal
  // dominates that interferer. The survive decision is a fold of a pure
  // per-interferer predicate, so collider order cannot matter.
  bool collided = false;
  uint64_t captured_interferers = 0;
  const double own_dist = distance(receiver_pos, tx.sender_pos);
  for (const Collider& c : tx.colliders) {
    if (!within_range(receiver_pos, c.pos, c.coverage_m)) continue;
    double interferer_dist = distance(receiver_pos, c.pos);
    if (channel_->captured(own_dist, tx.range_m, interferer_dist,
                           c.range_m)) {
      ++captured_interferers;
      continue;  // captured: our signal dominates this interferer
    }
    collided = true;
    break;
  }
  if (collided) {
    ++stats_.collision_drops;
    ++report.collided;
    DAPES_TRACE_EVENT(trace::EventType::kMediumDropCollision, receiver,
                      tx.id);
    return;
  }
  if (captured_interferers > 0) {
    DAPES_TRACE_EVENT(trace::EventType::kMediumCapture, receiver, tx.id,
                      captured_interferers);
  }

  // Reception: the deterministic reference draws from the medium's
  // shared sequential stream in receiver order (bit-identical to the
  // pre-channel-layer medium). Every other model gets two keyed streams:
  // a per-frame one keyed by (link_seed, transmission, receiver), and a
  // per-link one re-seeded identically for every frame between the same
  // unordered node pair — what makes shadowing quasi-static per link.
  // Keyed draws make outcomes independent of enumeration order and
  // spatial indexing.
  RxContext rx;
  rx.distance_m = own_dist;
  rx.tx_range_m = tx.range_m;
  rx.loss_rate = params_.loss_rate;
  rx.sender = tx.frame->sender;
  rx.receiver = receiver;
  rx.tx_id = tx.id;
  rx.time_s = tx.start.to_seconds();
  rx.mid_x = 0.5 * (tx.sender_pos.x + receiver_pos.x);
  rx.mid_y = 0.5 * (tx.sender_pos.y + receiver_pos.y);
  bool delivered;
  if (channel_->deterministic_reference()) {
    delivered = channel_->receives(rx, rng_, rng_);
  } else {
    // Bursty-erasure state snapshot for the trace. link_state is a pure
    // query, but not free, so only pay for it when a tracer is installed.
    if (trace::active() != nullptr) {
      const int state = channel_->link_state(rx);
      if (state >= 0) {
        DAPES_TRACE_EVENT(trace::EventType::kChannelState, receiver, tx.id,
                          static_cast<uint64_t>(state));
      }
    }
    common::Rng frame_rng(common::derive_seed(
        common::derive_seed(params_.channel.link_seed, tx.id), receiver));
    const NodeId lo = rx.sender < receiver ? rx.sender : receiver;
    const NodeId hi = rx.sender < receiver ? receiver : rx.sender;
    // Distinct stream family for the per-link draws ("shad" tag), so a
    // link stream can never collide with a frame stream.
    common::Rng link_rng(common::derive_seed(
        common::derive_seed(
            common::derive_seed(params_.channel.link_seed, 0x73686164ULL),
            lo),
        hi));
    delivered = channel_->receives(rx, link_rng, frame_rng);
  }
  if (!delivered) {
    ++stats_.losses;
    ++report.lost;
    DAPES_TRACE_EVENT(trace::EventType::kMediumDropLoss, receiver, tx.id);
    return;
  }
  ++stats_.deliveries;
  ++report.delivered;
  DAPES_TRACE_EVENT(trace::EventType::kMediumRx, receiver, tx.id);
  if (!nodes_[receiver].on_receive) return;
  // The receiver owns the protocol callback, so receive-path timers are
  // cancellable by node and its records name it.
  Scheduler::OwnerScope own(sched_, receiver);
  nodes_[receiver].on_receive(tx.frame, receiver);
}

}  // namespace dapes::sim
