/// @file
/// Shared broadcast wireless medium.
///
/// Models the parts of IEEE 802.11b ad-hoc mode the evaluation depends on:
///   * connectivity and reception through a pluggable `ChannelModel`
///     (unit-disk reference by default; log-distance path loss with
///     shadowing, reception curve, SIR capture and preamble airtime as
///     alternatives — see sim/channel.hpp),
///   * serialization delay at a configurable data rate (paper: 11 Mbps),
///   * independent Bernoulli loss per receiver (paper: 10 %),
///   * collisions: two transmissions whose intervals overlap corrupt each
///     other at every receiver that can hear both senders, unless the
///     channel model's capture rule lets the stronger frame survive. This
///     is the hidden-terminal/same-slot mechanism PEBA mitigates.
///
/// The sender learns whether its frame collided anywhere via the completion
/// callback — an abstraction of detecting a collision through the absence
/// of the expected response (the paper's peers detect collisions and then
/// run PEBA). See DESIGN.md "Substitutions".
///
/// Node queries (receiver capture, neighbor sets, degree) go through a
/// uniform cell grid over the node positions, rebuilt lazily against the
/// mobility models, so they touch only the cells around a point instead
/// of every node. The grid is a pure candidate index — every candidate is
/// re-checked with the exact distance predicate — so outcomes are
/// *identical* to the retained all-node scan (Params::brute_force), which
/// the equivalence test suites assert. The few frames in flight at any
/// instant (carrier sense, collision marking) are scanned directly. See
/// DESIGN.md "Spatial medium" and "Channel & PHY models".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/buffer.hpp"
#include "common/bytes.hpp"
#include "common/rng.hpp"
#include "sim/channel.hpp"
#include "sim/mobility.hpp"
#include "sim/scheduler.hpp"
#include "sim/spatial_grid.hpp"

namespace dapes::sim {

/// Index of a node registered with the medium (dense, assigned by
/// `Medium::add_node` in registration order).
using NodeId = uint32_t;

/// One frame on the air. The payload is opaque to the medium.
///
/// The payload is a ref-counted slice: the medium hands the *same* frame
/// to every in-range receiver, and receivers that decode it keep views
/// into this shared buffer instead of copying (see DESIGN.md "Wire &
/// buffer architecture").
struct Frame {
  /// Transmitting node.
  NodeId sender = 0;
  /// Opaque wire bytes, shared by every receiver.
  common::BufferSlice payload;
  /// Upper-layer tag used only for statistics (e.g. "interest", "data",
  /// "hello"). Never interpreted by the medium.
  std::string kind;
};

/// Shared immutable frame handle (one allocation per broadcast).
using FramePtr = std::shared_ptr<const Frame>;

/// Hook invoked once per transmission as it leaves the air, so an upper
/// layer can pre-compute per-frame work once per broadcast instead of
/// once per receiver (the verify-cache layer: one digest + MAC verdict
/// per frame, served to all N in-range receivers; see DESIGN.md "Crypto
/// engine & verify cache").
class DeliveryPrewarm {
 public:
  virtual ~DeliveryPrewarm() = default;
  /// Pre-compute per-frame state for @p frame. Runs right after the
  /// medium's deliver trace event and before any receiver callback of
  /// the transmission.
  virtual void prewarm(const Frame& frame) = 0;
};

/// Aggregate medium statistics for one trial.
struct MediumStats {
  uint64_t transmissions = 0;   ///< frames put on the air
  uint64_t deliveries = 0;      ///< successful (frame, receiver) pairs
  uint64_t losses = 0;          ///< dropped by the channel or random loss
  uint64_t collision_drops = 0; ///< dropped because of a collision
  uint64_t collided_frames = 0; ///< frames that collided at >=1 receiver
  uint64_t bytes_sent = 0;      ///< payload + overhead bytes transmitted

  /// Per-kind transmission counts (protocol overhead breakdown).
  std::unordered_map<std::string, uint64_t> tx_by_kind;
};

/// The shared broadcast medium every node of a trial transmits on.
class Medium {
 public:
  /// Fixed per-frame overhead (preamble/MAC header), bytes.
  static constexpr size_t kFrameOverheadBytes = 34;

  /// Radio/channel configuration, fixed per trial.
  struct Params {
    /// Nominal radio range (paper sweeps WiFi range 20-100 m). Per-node
    /// radios scale it via `set_node_range_factor` (mixed-range radios).
    double range_m = 60.0;
    /// Channel bit rate (paper: 802.11b, 11 Mbps).
    double data_rate_bps = 11e6;
    /// Distance-independent Bernoulli loss per receiver (paper: 10 %).
    double loss_rate = 0.10;
    /// Channel/PHY model (unit-disk reference by default) plus its
    /// parameters, including the legacy capture ratio. See
    /// sim/channel.hpp.
    ChannelParams channel;
    /// Enumerate node candidates by scanning every node instead of the
    /// node grid. That enumeration is the only thing it switches, and
    /// outcomes are identical either way (the equivalence tests assert
    /// it). The reference exists for the equivalence tests and for
    /// bench_scale's speedup baseline.
    bool brute_force = false;
  };

  /// Delivered frame + the receiving node.
  using ReceiveCallback = std::function<void(const FramePtr&, NodeId receiver)>;

  /// Outcome of one transmission, reported back to the sender. This
  /// abstracts the sender's ability to detect collisions from missing
  /// responses (paper §IV-F); `mostly_collided()` is the signal PEBA
  /// reacts to.
  struct TxReport {
    size_t receivers = 0;  ///< nodes in range at transmission time
    size_t collided = 0;   ///< receivers that saw a collision
    size_t lost = 0;       ///< receivers that dropped it to channel loss
    size_t delivered = 0;  ///< receivers that got the frame

    /// More than half of the in-range receivers saw a collision.
    bool mostly_collided() const {
      return receivers > 0 && collided * 2 > receivers;
    }
    /// At least one receiver saw a collision.
    bool collided_anywhere() const { return collided > 0; }
  };
  /// Invoked once when a transmission leaves the air.
  using SendCompleteCallback = std::function<void(const TxReport&)>;

  /// Builds the channel model from `params.channel` (throws
  /// std::invalid_argument on an unknown model name).
  Medium(Scheduler& sched, Params params, common::Rng rng);

  /// Register a node. The medium does not own the mobility model. With
  /// @p alive false the node is registered *latent*: invisible to every
  /// connectivity query (delivery, neighbor sets, carrier sense) until
  /// `revive_node` admits it — how the fault layer pre-creates
  /// flash-crowd peers so mid-trial admission never perturbs RNG
  /// streams.
  NodeId add_node(MobilityModel* mobility, ReceiveCallback on_receive,
                  bool alive = true);

  /// Retire a node: it stops being delivered to, stops appearing in
  /// neighbor/carrier-sense/collision queries, and may no longer
  /// transmit (transmit throws). Frames it already put on the air keep
  /// delivering — they left the antenna. Idempotent. The caller is
  /// expected to follow up with `Scheduler::cancel_for_node` so the
  /// node's pending timers cannot fire into torn-down state.
  void retire_node(NodeId node);

  /// (Re-)admit a latent or retired node. Frames already in flight at
  /// admission time — including one transmitted earlier in the same
  /// instant — are *not* delivered to it: it was not listening when they
  /// were sent (see DESIGN.md "Fault injection & open membership").
  /// Idempotent.
  void revive_node(NodeId node);

  /// True when @p node is currently a live member (registered alive, or
  /// revived and not since retired).
  bool node_alive(NodeId node) const { return nodes_.at(node).alive; }

  /// Put a frame on the air now. Serialization + propagation delay apply.
  void transmit(FramePtr frame, SendCompleteCallback on_complete = nullptr);

  /// Carrier sense: true if any in-flight transmission is audible at
  /// @p node right now (audible = within the channel model's coverage of
  /// that transmission's sender).
  bool busy_for(NodeId node) const;

  /// Latest end time among transmissions audible at @p node (now() if idle).
  TimePoint busy_until(NodeId node) const;

  /// Airtime of a frame of @p payload_bytes including overhead, per the
  /// channel model's bitrate/airtime rule.
  Duration frame_duration(size_t payload_bytes) const;

  /// Current position of @p node.
  Vec2 position_of(NodeId node) const;
  /// Nominal radio range of @p node (range_m x its range factor).
  double range_of(NodeId node) const;
  /// True when @p b is within @p a's nominal radio range right now.
  /// Directional under mixed-range radios: in_range(a,b) uses a's range.
  bool in_range(NodeId a, NodeId b) const;
  /// Nodes within @p node's nominal radio range, ascending id order.
  /// "Neighbor" means the reliable neighborhood (the nominal range where
  /// the unit-disk delivers and the log-distance curve is at 50 %), not
  /// the wider audibility coverage interference uses.
  std::vector<NodeId> neighbors_of(NodeId node) const;
  /// Number of nodes in range of @p node (== neighbors_of(node).size(),
  /// without materializing the set) — the density query that
  /// density-adaptive logic and the scale.medium sweeps use on every
  /// tick.
  size_t degree_of(NodeId node) const;
  /// Nodes registered so far.
  size_t node_count() const { return nodes_.size(); }

  /// The trial's radio/channel configuration.
  const Params& params() const { return params_; }
  /// The installed channel/PHY model.
  const ChannelModel& channel() const { return *channel_; }

  /// Scale one node's radio range to `range_m * factor` (> 0) —
  /// mixed-range radios. Call during setup, before
  /// traffic: frames already in flight keep their start-time range.
  void set_node_range_factor(NodeId node, double factor);

  /// Install (or clear, with nullptr) the delivery prewarm hook. The
  /// medium does not own it; the caller keeps it alive while frames are
  /// in flight. Install during setup, before traffic.
  void set_prewarm(DeliveryPrewarm* prewarm) { prewarm_ = prewarm; }
  /// The installed delivery prewarm hook (null when none).
  DeliveryPrewarm* prewarm() const { return prewarm_; }

  /// Aggregate statistics since construction.
  const MediumStats& stats() const { return stats_; }
  /// Mutable statistics access (drivers reset per-phase counters).
  MediumStats& stats() { return stats_; }

 private:
  struct NodeEntry {
    MobilityModel* mobility = nullptr;
    ReceiveCallback on_receive;
    /// Per-node multiplier on params_.range_m (mixed-range radios).
    double range_factor = 1.0;
    /// Live member? Retired/latent nodes stay registered (ids are dense
    /// and stable) but are invisible to every connectivity query.
    bool alive = true;
    /// When the node last became live (zero for setup-time members);
    /// delivery eligibility compares it against a frame's start time.
    TimePoint joined = TimePoint::zero();
  };

  /// One interferer of an in-flight transmission: enough state to decide
  /// audibility (coverage) and capture (nominal range) at any receiver.
  struct Collider {
    Vec2 pos;
    double coverage_m = 0.0;
    double range_m = 0.0;
  };

  struct ActiveTx {
    uint64_t id = 0;
    FramePtr frame;
    Vec2 sender_pos;
    /// Sender's nominal range at start time (capture rule input).
    double range_m = 0.0;
    /// Channel-model audibility cutoff at start time.
    double coverage_m = 0.0;
    TimePoint start;
    TimePoint end;
    /// Transmissions that overlapped this one.
    std::vector<Collider> colliders;
    /// The exact in-coverage receiver set (id, position) among the nodes
    /// alive at start time, in ascending id order. Nodes that join later
    /// are never added.
    std::vector<std::pair<NodeId, Vec2>> receivers;
    SendCompleteCallback on_complete;
  };

  void deliver(uint64_t tx_id);

  /// One (frame, receiver) pair: collision fold, reception draw, stats
  /// and report bookkeeping, then the receiver's callback when the frame
  /// got through.
  void deliver_one(const ActiveTx& tx, NodeId receiver, Vec2 receiver_pos,
                   TxReport& report);

  /// Membership half of the delivery predicate, checked at delivery time
  /// for each captured receiver: it must be alive *now* and must have
  /// joined no later than the frame's start (a receiver that retired and
  /// revived mid-flight was not listening throughout). Checked before any
  /// stats or RNG draw, so with a fixed population it is vacuously true
  /// and draw streams are untouched.
  bool delivery_eligible(NodeId receiver, TimePoint tx_start) const {
    const NodeEntry& e = nodes_[receiver];
    return e.alive && e.joined <= tx_start;
  }

  /// Visit every live node (except @p exclude) within @p radius_m of
  /// @p center right now, as fn(id, position), in ascending id order in
  /// brute mode and unspecified order in grid mode. The single home of
  /// the "ensure grid, inflate by drift slack, re-check exactly" idiom
  /// that neighbors_of, degree_of and the transmit receiver capture
  /// share, and the only place Params::brute_force is read.
  template <typename Fn>
  void for_each_in_range(Vec2 center, double radius_m, NodeId exclude,
                         Fn&& fn) const;

  /// Rebuild the lazy node grid if a node joined or nodes may have
  /// drifted more than a quarter cell since the last build; afterwards
  /// `node_grid_slack()` bounds the residual drift.
  void ensure_node_grid() const;
  double node_grid_slack() const;

  Scheduler& sched_;
  Params params_;
  ChannelModelPtr channel_;
  common::Rng rng_;
  std::vector<NodeEntry> nodes_;
  /// Frames on the air, scanned directly by carrier sense and collision
  /// marking (a handful at any instant, even at thousands of nodes).
  std::unordered_map<uint64_t, ActiveTx> active_;
  uint64_t next_tx_id_ = 1;
  MediumStats stats_;
  /// Delivery prewarm hook (verify-cache layer); null when disabled.
  DeliveryPrewarm* prewarm_ = nullptr;

  /// Lazy spatial index of node positions (grid mode), the medium's only
  /// spatial index. Entries hold the position at build time; queries
  /// inflate their radius by the drift bound max_speed * (now - build
  /// time) and re-check exactly.
  mutable DenseCellGrid node_grid_;
  mutable TimePoint node_grid_time_ = TimePoint::zero();
  mutable double node_grid_max_speed_ = 0.0;
};

}  // namespace dapes::sim
