/// @file
/// Discrete-event scheduler.
///
/// Single-threaded, deterministic: events at the same timestamp fire in
/// insertion order (a strictly increasing sequence number breaks ties), so
/// identical seeds give identical runs. Everything in the repository — the
/// wireless medium, NDN forwarders, DAPES peers, the IP baselines — runs on
/// one Scheduler instance per trial.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <unordered_set>
#include <vector>

#include "common/time.hpp"
#include "trace/trace.hpp"

namespace dapes::sim {

using common::Duration;
using common::TimePoint;

/// Handle for cancelling a scheduled event.
struct EventId {
  /// Opaque event identity; 0 means "no event".
  uint64_t value = 0;
  /// True when the handle refers to a real (scheduled) event.
  bool valid() const { return value != 0; }
};

/// The per-trial discrete-event loop (see the file comment for the
/// determinism contract). Not copyable: exactly one instance per trial.
class Scheduler {
 public:
  /// Owner value of events scheduled outside any OwnerScope. Not 0 —
  /// node ids start at 0, so 0 must stay a usable owner.
  static constexpr uint64_t kNoOwner = std::numeric_limits<uint64_t>::max();

  /// RAII owner attribution, the one answer to "which node is running":
  /// while a scope is alive, every event scheduled into @p sched is
  /// stamped with @p owner (what the fault-injection teardown sweep,
  /// `cancel_for_node`, keys on), and the thread's trace node context is
  /// @p owner, so records emitted through DAPES_TRACE_HERE and
  /// DAPES_TRACE_NAMED name it (kNoOwner clears the context). Events
  /// fired by the run loop re-install their own owner around the
  /// callback, so transitively scheduled events (retransmit timers
  /// rescheduling themselves, CSMA backoff chains) and everything they
  /// trace inherit it without any per-call plumbing. Scopes nest; the
  /// previous owner and context are restored on destruction.
  class OwnerScope {
   public:
    /// Make @p owner the current owner of @p sched and the thread's
    /// trace node context.
    OwnerScope(Scheduler& sched, uint64_t owner)
        : sched_(sched),
          prev_owner_(sched.owner_),
          prev_node_(trace::detail::t_node) {
      sched.owner_ = owner;
      // Owners are node ids; kNoOwner truncates to kNoNode.
      trace::detail::t_node = static_cast<uint32_t>(owner);
    }
    /// Restore the previous owner and trace node context.
    ~OwnerScope() {
      sched_.owner_ = prev_owner_;
      trace::detail::t_node = prev_node_;
    }
    OwnerScope(const OwnerScope&) = delete;             ///< not copyable
    OwnerScope& operator=(const OwnerScope&) = delete;  ///< not copyable

   private:
    Scheduler& sched_;
    uint64_t prev_owner_;
    uint32_t prev_node_;
  };
  static_assert(static_cast<uint32_t>(kNoOwner) == trace::kNoNode);

  /// An empty schedule at time zero.
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;             ///< not copyable
  Scheduler& operator=(const Scheduler&) = delete;  ///< not copyable

  /// Current simulated time.
  TimePoint now() const { return now_; }

  /// Schedule @p fn to run at absolute time @p at (clamped to now()).
  EventId schedule_at(TimePoint at, std::function<void()> fn);

  /// Schedule @p fn after a relative delay (negative delays clamp to 0).
  EventId schedule(Duration delay, std::function<void()> fn);

  /// Cancel a pending event. Returns false if it was already cancelled
  /// (and usually if it already fired — after a compaction the scheduler
  /// no longer remembers old ids, so a stale cancel may return true; it
  /// is harmless either way).
  bool cancel(EventId id);

  /// The owner currently stamped onto scheduled events (kNoOwner when no
  /// OwnerScope for this scheduler is active).
  uint64_t current_owner() const { return owner_; }

  /// Teardown sweep for a retired node: cancel every pending event owned
  /// by @p owner (see OwnerScope), reusing the lazy-cancel + compaction
  /// machinery so a mass retirement cannot bloat the heap. Events
  /// scheduled under `OwnerScope(sched, kNoOwner)` — the medium's
  /// in-flight frame deliveries — are never touched. Throws
  /// std::invalid_argument for kNoOwner. Returns the number cancelled.
  size_t cancel_for_node(uint64_t owner);

  /// Run until the queue is empty or simulated time reaches @p until.
  /// Returns the number of events executed by this call.
  size_t run_until(TimePoint until);

  /// Run until the queue drains completely.
  size_t run();

  /// Number of live (non-cancelled) pending events.
  size_t pending() const {
    return cancelled_.size() < heap_.size() ? heap_.size() - cancelled_.size()
                                            : 0;
  }

  /// Queue entries currently held, *including* cancelled ones awaiting
  /// lazy removal — the quantity the compaction keeps bounded.
  size_t queued() const { return heap_.size(); }

  /// Total events executed over the scheduler's lifetime.
  uint64_t executed() const { return executed_; }

 private:
  struct Entry {
    TimePoint at;
    uint64_t seq = 0;
    uint64_t id = 0;
    /// Owning node for cancel_for_node (kNoOwner = unowned).
    uint64_t owner = kNoOwner;
    std::function<void()> fn;
  };
  struct EntryCompare {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  /// Drop every cancelled entry from the heap in one O(n) pass. Called
  /// when cancelled entries outnumber live ones *or* exceed an absolute
  /// cap: without the cap, a huge queue could hold an arbitrary byte
  /// volume of dead entries while still passing the ratio test.
  void compact();

  /// Cancel bookkeeping shared by cancel and cancel_for_node.
  bool apply_cancel(uint64_t id);

  /// Pop the earliest entry (the heap must be non-empty): drop it if it
  /// was cancelled, else advance the clock to it and fire it. Returns
  /// whether it fired. The one loop body run and run_until share.
  bool step();

  TimePoint now_ = TimePoint::zero();
  uint64_t next_seq_ = 1;
  uint64_t next_id_ = 1;
  uint64_t executed_ = 0;
  /// Owner stamped onto newly scheduled events (see OwnerScope).
  uint64_t owner_ = kNoOwner;
  /// Max-priority heap over EntryCompare (std::push_heap/pop_heap), kept
  /// as a plain vector so compact() can filter it in place.
  std::vector<Entry> heap_;
  std::unordered_set<uint64_t> cancelled_;
};

}  // namespace dapes::sim
