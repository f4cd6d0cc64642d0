// Unit tests for the discrete-event scheduler.
#include <gtest/gtest.h>

#include <algorithm>

#include "sim/scheduler.hpp"

namespace dapes::sim {
namespace {

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule(Duration::milliseconds(30), [&] { order.push_back(3); });
  sched.schedule(Duration::milliseconds(10), [&] { order.push_back(1); });
  sched.schedule(Duration::milliseconds(20), [&] { order.push_back(2); });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, TiesFireInInsertionOrder) {
  Scheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sched.schedule(Duration::milliseconds(5), [&order, i] { order.push_back(i); });
  }
  sched.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(Scheduler, NowAdvancesToEventTime) {
  Scheduler sched;
  TimePoint seen{};
  sched.schedule(Duration::milliseconds(42), [&] { seen = sched.now(); });
  sched.run();
  EXPECT_EQ(seen.us, 42000);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler sched;
  int fired = 0;
  EventId id = sched.schedule(Duration::milliseconds(5), [&] { ++fired; });
  EXPECT_TRUE(sched.cancel(id));
  sched.run();
  EXPECT_EQ(fired, 0);
}

TEST(Scheduler, CancelTwiceReturnsFalse) {
  Scheduler sched;
  EventId id = sched.schedule(Duration::milliseconds(5), [] {});
  EXPECT_TRUE(sched.cancel(id));
  EXPECT_FALSE(sched.cancel(id));
}

TEST(Scheduler, CancelInvalidIdIsNoop) {
  Scheduler sched;
  EXPECT_FALSE(sched.cancel(EventId{}));
}

TEST(Scheduler, RunUntilStopsAtBoundary) {
  Scheduler sched;
  int fired = 0;
  sched.schedule(Duration::milliseconds(10), [&] { ++fired; });
  sched.schedule(Duration::milliseconds(30), [&] { ++fired; });
  sched.run_until(TimePoint{20000});
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sched.now().us, 20000);
  sched.run_until(TimePoint{40000});
  EXPECT_EQ(fired, 2);
}

TEST(Scheduler, EventAtExactBoundaryRuns) {
  Scheduler sched;
  int fired = 0;
  sched.schedule(Duration::milliseconds(20), [&] { ++fired; });
  sched.run_until(TimePoint{20000});
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, EventsScheduledDuringRunExecute) {
  Scheduler sched;
  std::vector<int> order;
  sched.schedule(Duration::milliseconds(1), [&] {
    order.push_back(1);
    sched.schedule(Duration::milliseconds(1), [&] { order.push_back(2); });
  });
  sched.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Scheduler, NegativeDelayClampsToNow) {
  Scheduler sched;
  bool fired = false;
  sched.schedule(Duration::milliseconds(-5), [&] { fired = true; });
  sched.run();
  EXPECT_TRUE(fired);
  EXPECT_EQ(sched.now().us, 0);
}

TEST(Scheduler, ExecutedCounts) {
  Scheduler sched;
  for (int i = 0; i < 5; ++i) {
    sched.schedule(Duration::milliseconds(i), [] {});
  }
  sched.run();
  EXPECT_EQ(sched.executed(), 5u);
}

TEST(Scheduler, PendingExcludesCancelled) {
  Scheduler sched;
  EventId a = sched.schedule(Duration::milliseconds(1), [] {});
  sched.schedule(Duration::milliseconds(2), [] {});
  EXPECT_EQ(sched.pending(), 2u);
  sched.cancel(a);
  EXPECT_EQ(sched.pending(), 1u);
}

TEST(Scheduler, CancelledFarFutureEventsCompacted) {
  // The 1000-node-scale failure mode: masses of far-future retransmit
  // timers get cancelled long before they would pop, so lazy pop-time
  // removal never reclaims them. Compaction must keep the heap bounded.
  Scheduler sched;
  std::vector<EventId> ids;
  for (int i = 0; i < 10000; ++i) {
    ids.push_back(sched.schedule(Duration::seconds(1000.0 + i), [] {}));
  }
  EXPECT_EQ(sched.queued(), 10000u);
  for (EventId id : ids) sched.cancel(id);
  EXPECT_EQ(sched.pending(), 0u);
  // Everything was cancelled; compaction leaves at most the small
  // below-floor residue it does not bother with.
  EXPECT_LT(sched.queued(), 64u);
}

TEST(Scheduler, RetransmitTimerChurnStaysBounded) {
  // Schedule-then-cancel churn (the retransmit-timer pattern): one live
  // timer at any moment, 100k cancelled ones over time.
  Scheduler sched;
  EventId pending{};
  int fired = 0;
  for (int i = 0; i < 100000; ++i) {
    if (pending.valid()) sched.cancel(pending);
    pending = sched.schedule(Duration::seconds(3600.0), [&] { ++fired; });
    EXPECT_LE(sched.queued(), 64u + 1u) << "iteration " << i;
  }
  EXPECT_EQ(sched.pending(), 1u);
  sched.run();
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, CompactionPreservesOrderAndSurvivors) {
  Scheduler sched;
  std::vector<int> order;
  std::vector<EventId> doomed;
  // Interleave survivors with a cancelled majority big enough to trip
  // compaction, then check the survivors still fire in time order.
  for (int i = 0; i < 200; ++i) {
    int at_ms = 1000 - i;  // reverse order to exercise the heap
    if (i % 10 == 0) {
      sched.schedule(Duration::milliseconds(at_ms),
                     [&order, at_ms] { order.push_back(at_ms); });
    } else {
      doomed.push_back(sched.schedule(Duration::milliseconds(at_ms), [] {
        ADD_FAILURE() << "cancelled event fired";
      }));
    }
  }
  for (EventId id : doomed) sched.cancel(id);
  EXPECT_EQ(sched.pending(), 20u);
  sched.run();
  ASSERT_EQ(order.size(), 20u);
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
  EXPECT_EQ(sched.queued(), 0u);
}

TEST(Scheduler, CancelledPileCompactedByAbsoluteCap) {
  // A huge mostly-live heap: the ratio trigger (cancelled > half) never
  // fires, so only the absolute cap (4096 dead entries) bounds the pile.
  Scheduler sched;
  std::vector<EventId> doomed;
  for (int i = 0; i < 10000; ++i) {
    sched.schedule(Duration::seconds(100.0 + i), [] {});
  }
  for (int i = 0; i < 6000; ++i) {
    doomed.push_back(sched.schedule(Duration::seconds(5000.0 + i), [] {}));
  }
  for (EventId id : doomed) sched.cancel(id);
  EXPECT_EQ(sched.pending(), 10000u);
  // Without the absolute cap every dead entry would linger (16000 total);
  // with it, at most one cap's worth of dead entries survives.
  EXPECT_LE(sched.queued(), 10000u + 4096u);
}

TEST(Scheduler, CancelForNodeSweepsOnlyThatOwner) {
  Scheduler sched;
  int owned = 0, other = 0, unowned = 0;
  {
    Scheduler::OwnerScope own(sched, 7);
    sched.schedule(Duration::milliseconds(1), [&] { ++owned; });
    sched.schedule(Duration::milliseconds(2), [&] { ++owned; });
  }
  {
    Scheduler::OwnerScope own(sched, 8);
    sched.schedule(Duration::milliseconds(1), [&] { ++other; });
  }
  sched.schedule(Duration::milliseconds(1), [&] { ++unowned; });
  EXPECT_EQ(sched.cancel_for_node(7), 2u);
  // A second sweep finds nothing left to cancel.
  EXPECT_EQ(sched.cancel_for_node(7), 0u);
  sched.run();
  EXPECT_EQ(owned, 0);
  EXPECT_EQ(other, 1);
  EXPECT_EQ(unowned, 1);
}

TEST(Scheduler, OwnershipInheritedByTransitiveSchedules) {
  // Events scheduled *from inside* an owned callback belong to the same
  // owner: a node's retransmit chains die with it even though only the
  // root event was scheduled under an explicit OwnerScope.
  Scheduler sched;
  int fired = 0;
  {
    Scheduler::OwnerScope own(sched, 3);
    sched.schedule(Duration::milliseconds(1), [&] {
      sched.schedule(Duration::milliseconds(1), [&] { ++fired; });
    });
  }
  sched.run_until(TimePoint{1000});  // root fires, child inherits owner 3
  EXPECT_EQ(sched.cancel_for_node(3), 1u);
  sched.run();
  EXPECT_EQ(fired, 0);
}

TEST(Scheduler, OwnerScopeRestoresPreviousOwner) {
  Scheduler sched;
  EXPECT_EQ(sched.current_owner(), Scheduler::kNoOwner);
  {
    Scheduler::OwnerScope outer(sched, 1);
    EXPECT_EQ(sched.current_owner(), 1u);
    {
      Scheduler::OwnerScope inner(sched, 2);
      EXPECT_EQ(sched.current_owner(), 2u);
    }
    EXPECT_EQ(sched.current_owner(), 1u);
  }
  EXPECT_EQ(sched.current_owner(), Scheduler::kNoOwner);
}

TEST(Scheduler, OwnerScopeIsPerScheduler) {
  // A scope stamps only its own scheduler's events.
  Scheduler a, b;
  Scheduler::OwnerScope own(a, 4);
  EXPECT_EQ(a.current_owner(), 4u);
  EXPECT_EQ(b.current_owner(), Scheduler::kNoOwner);
}

TEST(Scheduler, CancelForNodeRejectsBadArgs) {
  Scheduler sched;
  EXPECT_THROW(sched.cancel_for_node(Scheduler::kNoOwner),
               std::invalid_argument);
}

TEST(Scheduler, CancelForNodeComposesWithCompaction) {
  // A sweep large enough to trip the compaction floor must still cancel
  // every owned event and leave survivors intact (the sweep collects ids
  // before cancelling precisely because compaction rewrites the heap).
  Scheduler sched;
  int owned = 0, kept = 0;
  {
    Scheduler::OwnerScope own(sched, 9);
    for (int i = 0; i < 500; ++i) {
      sched.schedule(Duration::milliseconds(1 + i), [&] { ++owned; });
    }
  }
  for (int i = 0; i < 10; ++i) {
    sched.schedule(Duration::milliseconds(1 + i), [&] { ++kept; });
  }
  EXPECT_EQ(sched.cancel_for_node(9), 500u);
  sched.run();
  EXPECT_EQ(owned, 0);
  EXPECT_EQ(kept, 10);
}

TEST(Scheduler, SelfReschedulingChainBounded) {
  Scheduler sched;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 100) {
      sched.schedule(Duration::milliseconds(1), tick);
    }
  };
  sched.schedule(Duration::milliseconds(1), tick);
  sched.run();
  EXPECT_EQ(count, 100);
  EXPECT_EQ(sched.now().us, 100000);
}

}  // namespace
}  // namespace dapes::sim
