/// @file
/// Per-node radio with CSMA/CA-style deferral.
///
/// Protocol layers hand frames to their node's Radio instead of the Medium
/// directly. The radio carrier-senses before transmitting and defers with a
/// small random backoff while the channel is audible, which is the 802.11
/// DCF behaviour the paper's peers run on. Collisions still occur for
/// same-slot starts and hidden terminals — exactly the residual collisions
/// DAPES mitigates at the application layer with random timers and PEBA.
#pragma once

#include <deque>
#include <functional>

#include "common/rng.hpp"
#include "sim/medium.hpp"
#include "sim/scheduler.hpp"

namespace dapes::sim {

/// One node's CSMA/CA transmitter in front of the shared Medium.
class Radio {
 public:
  /// Re-exported Medium callback type (the radio forwards the TxReport).
  using SendCompleteCallback = Medium::SendCompleteCallback;

  /// The transmitter @p node sends through onto @p medium.
  Radio(Scheduler& sched, Medium& medium, NodeId node, common::Rng rng);

  /// Queue a frame for transmission. Frames leave in FIFO order.
  void send(FramePtr frame, SendCompleteCallback on_complete = nullptr);

  /// The node this radio transmits as.
  NodeId node() const { return node_; }
  /// Frames queued behind the current attempt.
  size_t queue_depth() const { return queue_.size(); }

  /// Frames dropped after exhausting the busy-deferral limit.
  uint64_t drops() const { return drops_; }

  /// Crash/restart teardown for the fault layer: drop every queued frame
  /// and forget the in-progress attempt (the backoff timer it guarded is
  /// cancelled separately by `Scheduler::cancel_for_node`, and a
  /// mid-flight transmission's completion callback is skipped by the
  /// medium once the node is retired — without this reset those stranded
  /// flags would deadlock the radio after a restart).
  void reset();

 private:
  struct Pending {
    FramePtr frame;
    SendCompleteCallback on_complete;
    int defers = 0;
  };

  void try_send();
  void schedule_retry();

  Scheduler& sched_;
  Medium& medium_;
  NodeId node_;
  common::Rng rng_;
  std::deque<Pending> queue_;
  bool attempt_scheduled_ = false;
  bool transmitting_ = false;
  int cw_;
  uint64_t drops_ = 0;
};

}  // namespace dapes::sim
