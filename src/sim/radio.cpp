#include "sim/radio.hpp"

#include <algorithm>

namespace dapes::sim {

namespace {

/// 802.11b-ish DCF slot time.
constexpr Duration kSlot = Duration::microseconds(20);
/// Inter-frame space waited after the channel goes idle.
constexpr Duration kIfs = Duration::microseconds(50);
/// Minimum contention window (slots) used while deferring. 802.11b DCF
/// uses CWmin=31; we keep a power of two and a deep CWmax because scaled
/// frames occupy the air longer than real 802.11b frames.
constexpr int kCwMin = 32;
/// Contention-window cap reached after repeated busy-deferrals.
constexpr int kCwMax = 1024;
/// Give up after this many busy-deferrals (frame dropped).
constexpr int kMaxDefers = 200;

}  // namespace

Radio::Radio(Scheduler& sched, Medium& medium, NodeId node, common::Rng rng)
    : sched_(sched), medium_(medium), node_(node), rng_(rng), cw_(kCwMin) {}

void Radio::send(FramePtr frame, SendCompleteCallback on_complete) {
  queue_.push_back(Pending{std::move(frame), std::move(on_complete), 0});
  if (!attempt_scheduled_ && !transmitting_) {
    attempt_scheduled_ = true;
    // Small random dither so co-located nodes that enqueue in the same
    // event don't probe the channel at the identical instant.
    Duration dither =
        Duration::microseconds(static_cast<int64_t>(rng_.next_below(
            static_cast<uint64_t>(kSlot.us) + 1)));
    sched_.schedule(dither, [this] { try_send(); });
  }
}

void Radio::try_send() {
  attempt_scheduled_ = false;
  if (transmitting_ || queue_.empty()) return;

  if (medium_.busy_for(node_)) {
    Pending& head = queue_.front();
    if (++head.defers > kMaxDefers) {
      ++drops_;
      auto cb = std::move(head.on_complete);
      queue_.pop_front();
      // Report a total failure: never reached the air.
      if (cb) cb(Medium::TxReport{});
      if (!queue_.empty()) schedule_retry();
      return;
    }
    cw_ = std::min(cw_ * 2, kCwMax);
    schedule_retry();
    return;
  }

  cw_ = kCwMin;
  Pending head = std::move(queue_.front());
  queue_.pop_front();
  transmitting_ = true;
  auto cb = std::move(head.on_complete);
  medium_.transmit(head.frame, [this, cb](const Medium::TxReport& report) {
    transmitting_ = false;
    if (cb) cb(report);
    if (!queue_.empty() && !attempt_scheduled_) {
      attempt_scheduled_ = true;
      sched_.schedule(kIfs, [this] { try_send(); });
    }
  });
}

void Radio::reset() {
  queue_.clear();
  attempt_scheduled_ = false;
  transmitting_ = false;
  cw_ = kCwMin;
}

void Radio::schedule_retry() {
  TimePoint idle_at = medium_.busy_until(node_);
  int slots = static_cast<int>(rng_.next_below(static_cast<uint64_t>(cw_)));
  TimePoint at = idle_at + kIfs + kSlot * slots;
  attempt_scheduled_ = true;
  sched_.schedule_at(at, [this] { try_send(); });
}

}  // namespace dapes::sim
