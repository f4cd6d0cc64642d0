/// @file
/// Faces: the forwarder's attachment points.
///
/// Each simulated node runs one Forwarder with (at least) two faces: an
/// AppFace for the local application (DAPES peer, or nothing on a pure
/// forwarder) and a WifiFace bridging to the node's broadcast radio. The
/// Forwarder pushes outgoing packets into Face::send_*; incoming packets
/// are injected by the face owner via the handlers the Forwarder installs.
///
/// Data moves between faces, the Forwarder and the Content Store as one
/// shared immutable DataPtr. A broadcast frame's packet is shared by
/// every WifiFace that hears it (frame_packet): N receivers and their N
/// caches share one Data, whose content and wire are views into the frame
/// buffer. When the sender's packet is already the decode of the frame's
/// bytes (Data::is_wire_decode), the frame carries that packet and nobody
/// decodes; so a cached packet re-broadcast hop after hop, and a
/// producer's own decode (Data::shared_decode), stay one object per
/// encoding. Otherwise the frame's first NDN consumer decodes it once.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/rng.hpp"
#include "ndn/packet.hpp"
#include "sim/radio.hpp"
#include "sim/scheduler.hpp"

namespace dapes::ndn {

/// Identifier the Forwarder assigns when a face is added.
using FaceId = uint32_t;

/// The one decoded packet of @p frame, shared by all its receivers.
/// @p Packet is Interest or Data; the payload's leading TLV type (0x05 or
/// 0x06) selects which one the frame carries. A Data frame may already
/// carry its packet in its slot (sim::Frame::packet): the sender's own
/// object, which WifiFace attaches only when it is exactly the decode of
/// the payload. Otherwise the first call decodes the payload and stores
/// the packet in the slot. Every call returns that same object. Returns
/// nullptr when the payload is not a @p Packet or does not decode (an
/// undecodable payload leaves the slot empty).
template <typename Packet>
std::shared_ptr<const Packet> frame_packet(const sim::Frame& frame);

/// Abstract attachment point between a Forwarder and an application or
/// network adapter (see file comment).
class Face {
 public:
  virtual ~Face() = default;

  /// Forwarder-assigned face id (0 until added).
  FaceId id() const { return id_; }
  /// Assign the face id (called by the Forwarder).
  void set_id(FaceId id) { id_ = id; }

  /// Local faces connect applications; non-local faces reach the network
  /// (hop limits only apply to non-local hops).
  virtual bool is_local() const = 0;

  /// Forwarder -> face: emit an Interest.
  virtual void send_interest(const Interest& interest) = 0;
  /// Forwarder -> face: emit a Data (shared, never copied).
  virtual void send_data(DataPtr data) = 0;

  /// Handler type for Interests arriving from this face.
  using InterestHandler = std::function<void(const Interest&)>;
  /// Handler type for Data arriving from this face.
  using DataHandler = std::function<void(DataPtr)>;

  /// Install the Forwarder's receive handlers for this face.
  void set_receive_handlers(InterestHandler on_interest, DataHandler on_data) {
    on_interest_ = std::move(on_interest);
    on_data_ = std::move(on_data);
  }

 protected:
  /// Hand an incoming Interest to the installed Forwarder handler.
  void deliver_interest(const Interest& interest) {
    if (on_interest_) on_interest_(interest);
  }
  /// Hand an incoming Data to the installed Forwarder handler.
  void deliver_data(DataPtr data) {
    if (on_data_) on_data_(std::move(data));
  }

 private:
  FaceId id_ = 0;
  InterestHandler on_interest_;
  DataHandler on_data_;
};

/// Local application endpoint. The application reads packets via its own
/// callbacks and writes with express()/put().
class AppFace final : public Face {
 public:
  /// Application callback for Interests delivered to the app.
  using AppInterestHandler = std::function<void(const Interest&)>;
  /// Application callback for Data delivered to the app.
  using AppDataHandler = std::function<void(const Data&)>;

  /// Application-side callbacks (what the app receives from the network).
  void set_app_handlers(AppInterestHandler on_interest, AppDataHandler on_data) {
    app_on_interest_ = std::move(on_interest);
    app_on_data_ = std::move(on_data);
  }

  /// Forwarder -> application (Interest).
  void send_interest(const Interest& interest) override {
    if (app_on_interest_) app_on_interest_(interest);
  }
  /// Forwarder -> application (Data).
  void send_data(DataPtr data) override {
    if (app_on_data_) app_on_data_(*data);
  }

  /// Application -> forwarder: express an Interest.
  void express(const Interest& interest) { deliver_interest(interest); }
  /// Application -> forwarder: publish a Data. The Content Store and any
  /// queued transmission share @p data.
  void put(DataPtr data) { deliver_data(std::move(data)); }

  bool is_local() const override { return true; }  ///< always local

 private:
  AppInterestHandler app_on_interest_;
  AppDataHandler app_on_data_;
};

/// Broadcast wireless face: encodes packets into radio frames.
///
/// Data transmissions are held for a random delay within a transmission
/// window and suppressed entirely if an identical-name Data is overheard
/// first — the paper's "random timer for collection data transmissions to
/// avoid collisions" plus multi-responder suppression. Set the window to
/// zero to send immediately.
class WifiFace final : public Face {
 public:
  /// Bridge @p radio to the forwarder; Data sends are delayed uniformly
  /// within @p data_window (0 = immediate) for suppression.
  WifiFace(sim::Scheduler& sched, sim::Radio& radio, sim::NodeId node,
           common::Rng rng,
           Duration data_window = Duration::milliseconds(20))
      : sched_(sched),
        radio_(radio),
        node_(node),
        rng_(rng),
        data_window_(data_window) {}

  /// Encode and broadcast an Interest immediately.
  void send_interest(const Interest& interest) override;
  /// Schedule a Data broadcast within the suppression window.
  void send_data(DataPtr data) override;

  /// Called by the node's medium receive callback for every frame heard:
  /// hands the frame's shared packet (frame_packet) to the Forwarder.
  /// Silently ignores frames that are not NDN packets (e.g. IP baseline
  /// traffic in mixed tests).
  void on_frame(const sim::FramePtr& frame);

  /// Completion hook for the next Interest transmission — lets the DAPES
  /// peer detect bitmap-announcement collisions for PEBA. One-shot.
  void set_next_interest_tx_callback(sim::Radio::SendCompleteCallback cb) {
    next_interest_cb_ = std::move(cb);
  }

  /// Crash-recovery wipe (see Peer::crash): cancel every pending delayed
  /// Data send and drop the one-shot completion hook. Counters survive —
  /// they are cumulative over the node's lifetime.
  void reset() {
    for (auto& [name, entry] : pending_data_) sched_.cancel(entry.second);
    pending_data_.clear();
    next_interest_cb_ = nullptr;
  }

  /// Interests actually put on the air.
  uint64_t interests_sent() const { return interests_sent_; }
  /// Data packets actually put on the air.
  uint64_t data_sent() const { return data_sent_; }
  /// Data sends cancelled by an overheard identical-name Data.
  uint64_t data_suppressed() const { return data_suppressed_; }

  bool is_local() const override { return false; }  ///< never local

 private:
  void transmit_data(const Name& name);
  /// Put @p data on the air. Both Data send paths end here, so the rule
  /// for attaching the sender's packet to the frame lives in one place.
  void broadcast_data(const DataPtr& data);

  sim::Scheduler& sched_;
  sim::Radio& radio_;
  sim::NodeId node_;
  common::Rng rng_;
  Duration data_window_;
  sim::Radio::SendCompleteCallback next_interest_cb_;
  /// Pending delayed Data sends, cancellable by overheard duplicates.
  /// Shared DataPtr handles (like the CS): queueing a retransmission
  /// never copies the packet — the cached wire slice rides along.
  /// Keyed by the Name's stored hash; nothing iterates this map.
  std::unordered_map<Name, std::pair<DataPtr, sim::EventId>> pending_data_;
  uint64_t interests_sent_ = 0;
  uint64_t data_sent_ = 0;
  uint64_t data_suppressed_ = 0;
};

}  // namespace dapes::ndn
