#include "sim/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

#include "trace/trace.hpp"

namespace dapes::sim {

namespace {

/// Below this size the heap is too small for compaction to matter; the
/// floor also preserves the "cancel twice returns false" behaviour for
/// the tiny schedules unit tests build.
constexpr size_t kCompactFloor = 64;

/// Absolute cancelled-entry cap: compact once this many dead entries
/// accumulate even if they are still a minority of a huge heap. 4096
/// entries is 256 KB of Entry storage plus their closures — the bound on
/// wasted memory between compactions.
constexpr size_t kCompactAbsolute = 4096;

}  // namespace

EventId Scheduler::schedule_at(TimePoint at, std::function<void()> fn) {
  if (at < now_) at = now_;
  DAPES_TRACE_HERE(trace::EventType::kSchedSchedule,
                   static_cast<uint64_t>(at.us));
  Entry e;
  e.at = at;
  e.seq = next_seq_++;
  e.id = next_id_++;
  e.owner = owner_;
  e.fn = std::move(fn);
  const EventId id{e.id};
  heap_.push_back(std::move(e));
  std::push_heap(heap_.begin(), heap_.end(), EntryCompare{});
  return id;
}

EventId Scheduler::schedule(Duration delay, std::function<void()> fn) {
  if (delay.us < 0) delay.us = 0;
  return schedule_at(now_ + delay, std::move(fn));
}

bool Scheduler::apply_cancel(uint64_t id) {
  // Mark; the entry is discarded lazily at pop time, or in bulk once
  // cancelled entries dominate the heap or pile past the absolute cap.
  if (!cancelled_.insert(id).second) return false;
  if ((heap_.size() >= kCompactFloor &&
       cancelled_.size() * 2 > heap_.size()) ||
      cancelled_.size() >= kCompactAbsolute) {
    compact();
  }
  return true;
}

bool Scheduler::cancel(EventId id) {
  if (!id.valid()) return false;
  DAPES_TRACE_HERE(trace::EventType::kSchedCancel);
  return apply_cancel(id.value);
}

size_t Scheduler::cancel_for_node(uint64_t owner) {
  if (owner == kNoOwner) {
    throw std::invalid_argument("Scheduler::cancel_for_node: kNoOwner");
  }
  // Collect first, cancel second: apply_cancel may trigger compact(),
  // which rewrites heap_ mid-iteration.
  std::vector<uint64_t> ids;
  for (const Entry& e : heap_) {
    if (e.owner == owner && !cancelled_.contains(e.id)) ids.push_back(e.id);
  }
  size_t cancelled = 0;
  for (uint64_t id : ids) {
    DAPES_TRACE_HERE(trace::EventType::kSchedCancel);
    if (apply_cancel(id)) ++cancelled;
  }
  return cancelled;
}

void Scheduler::compact() {
  std::erase_if(heap_, [&](const Entry& e) {
    auto it = cancelled_.find(e.id);
    if (it == cancelled_.end()) return false;
    cancelled_.erase(it);
    return true;
  });
  // Anything left never matched a queued entry (it already fired or was
  // compacted away before): forget it so the set cannot grow either.
  cancelled_.clear();
  std::make_heap(heap_.begin(), heap_.end(), EntryCompare{});
}

bool Scheduler::step() {
  std::pop_heap(heap_.begin(), heap_.end(), EntryCompare{});
  Entry e = std::move(heap_.back());
  heap_.pop_back();
  if (auto it = cancelled_.find(e.id); it != cancelled_.end()) {
    cancelled_.erase(it);
    return false;
  }
  now_ = e.at;
  ++executed_;
  // Re-install the entry's owner for the callback so events it
  // schedules and records it emits, this fire included, inherit
  // attribution (see OwnerScope).
  OwnerScope own(*this, e.owner);
  DAPES_TRACE_HERE(trace::EventType::kSchedFire);
  e.fn();
  return true;
}

size_t Scheduler::run_until(TimePoint until) {
  size_t count = 0;
  while (!heap_.empty() && heap_.front().at <= until) count += step();
  // The clock always reaches the requested horizon, whether or not
  // events remain beyond it.
  if (now_ < until) now_ = until;
  return count;
}

size_t Scheduler::run() {
  size_t count = 0;
  while (!heap_.empty()) count += step();
  return count;
}

}  // namespace dapes::sim
