#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <vector>

namespace {

using xpass::sim::EventQueue;
using xpass::sim::Time;
using xpass::sim::TimerId;

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(Time::us(3), [&] { order.push_back(3); });
  q.schedule(Time::us(1), [&] { order.push_back(1); });
  q.schedule(Time::us(2), [&] { order.push_back(2); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(q.now(), Time::us(3));
}

TEST(EventQueue, EqualTimestampsFireInScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(Time::us(5), [&order, i] { order.push_back(i); });
  }
  q.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  int fired = 0;
  TimerId id = q.schedule(Time::us(1), [&] { ++fired; });
  q.schedule(Time::us(2), [&] { ++fired; });
  q.cancel(id);
  q.run();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelInvalidIdIsNoop) {
  EventQueue q;
  q.cancel(TimerId{});
  // Slot that was never allocated.
  q.cancel(TimerId{(uint64_t{1} << EventQueue::kSlotBits) | 12345});
  int fired = 0;
  q.schedule(Time::us(1), [&] { ++fired; });
  q.run();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, RunUntilStopsAtBoundaryAndAdvancesClock) {
  EventQueue q;
  int fired = 0;
  q.schedule(Time::us(1), [&] { ++fired; });
  q.schedule(Time::us(10), [&] { ++fired; });
  q.run_until(Time::us(5));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(q.now(), Time::us(5));  // clock advances even with no event
  q.run_until(Time::us(20));
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, EventAtBoundaryIncluded) {
  EventQueue q;
  int fired = 0;
  q.schedule(Time::us(5), [&] { ++fired; });
  q.run_until(Time::us(5));
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, EventsCanScheduleMoreEvents) {
  EventQueue q;
  int chain = 0;
  std::function<void()> step = [&] {
    if (++chain < 5) q.schedule(q.now() + Time::us(1), step);
  };
  q.schedule(Time::zero(), step);
  q.run();
  EXPECT_EQ(chain, 5);
  EXPECT_EQ(q.now(), Time::us(4));
}

TEST(EventQueue, PendingCountsLiveEvents) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  TimerId a = q.schedule(Time::us(1), [] {});
  q.schedule(Time::us(2), [] {});
  EXPECT_EQ(q.pending(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.pending(), 1u);  // exact, immediately
  q.run();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StepReturnsFalseWhenExhausted) {
  EventQueue q;
  EXPECT_FALSE(q.step());
  q.schedule(Time::us(1), [] {});
  EXPECT_TRUE(q.step());
  EXPECT_FALSE(q.step());
}

TEST(EventQueue, CancelDuringExecutionOfEarlierEvent) {
  EventQueue q;
  int fired = 0;
  TimerId later{};
  later = q.schedule(Time::us(2), [&] { ++fired; });
  q.schedule(Time::us(1), [&] { q.cancel(later); });
  q.run();
  EXPECT_EQ(fired, 0);
}

// Regression: the seed implementation kept cancelled ids in a tombstone set
// that was only cleaned when the id surfaced at the heap top, so cancelling
// an already-fired timer — which every connection teardown does — grew the
// set forever. The slot-pool design must retain no per-timer state after a
// fire/cancel, for any interleaving.
TEST(EventQueue, CancelAfterFireRetainsNoPerTimerState) {
  EventQueue q;
  for (int cycle = 0; cycle < 1'000'000; ++cycle) {
    TimerId id = q.schedule(q.now() + Time::ns(1), [] {});
    ASSERT_TRUE(q.step());
    q.cancel(id);  // after fire: must be a no-op, retaining nothing
  }
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.fired(), 1'000'000u);
  EXPECT_EQ(q.cancelled(), 0u);  // every cancel hit an already-fired timer
  // One live event at a time -> the pool never grew past one slot, no
  // matter how many cancel-after-fire calls were made.
  EXPECT_EQ(q.pool_slots(), 1u);
  EXPECT_EQ(q.heap_entries(), 0u);
}

TEST(EventQueue, PendingStaysExactAcrossScheduleCancelChurn) {
  // Deterministic mix of schedule / cancel-before-fire / cancel-after-fire /
  // fire, shadow-tracked; pending() must match the shadow count at every
  // step of 1e6 cycles, and all per-timer state must drain at the end.
  EventQueue q;
  uint64_t lcg = 12345;
  struct Tracked {
    TimerId id;
    std::shared_ptr<bool> fired;  // set by the callback itself
  };
  std::vector<Tracked> live;
  std::vector<TimerId> stale;  // ids known to be fired or cancelled
  size_t expected = 0;
  for (int cycle = 0; cycle < 1'000'000; ++cycle) {
    lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
    const uint32_t op = (lcg >> 33) % 4;
    switch (op) {
      case 0:  // schedule
      case 1: {
        auto flag = std::make_shared<bool>(false);
        live.push_back(
            {q.schedule(q.now() + Time::ns(1 + ((lcg >> 40) % 1000)),
                        [flag] { *flag = true; }),
             flag});
        ++expected;
        break;
      }
      case 2:  // cancel a tracked id (it may or may not have fired already)
        if (!live.empty()) {
          Tracked t = live.back();
          live.pop_back();
          const bool was_live = !*t.fired;
          q.cancel(t.id);  // cancel-after-fire when !was_live: must be inert
          if (was_live) --expected;
          stale.push_back(t.id);
        } else if (!stale.empty()) {
          q.cancel(stale[(lcg >> 8) % stale.size()]);  // must be a no-op
        }
        break;
      case 3:  // fire
        if (expected > 0) {
          ASSERT_TRUE(q.step());
          --expected;
        } else {
          ASSERT_FALSE(q.step());
        }
        break;
    }
    ASSERT_EQ(q.pending(), expected);
    if (stale.size() > 4096) stale.resize(1024);
  }
  q.run();
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.heap_entries(), 0u);
  // The pool is bounded by peak concurrency (a ~zero-drift random walk,
  // thousands here), not by the ~500k schedules that passed through it.
  EXPECT_LE(q.pool_slots(), 100'000u);
}

constexpr uint64_t kSlotMask = (uint64_t{1} << EventQueue::kSlotBits) - 1;

TEST(EventQueue, StaleCancelDoesNotKillSlotReuser) {
  EventQueue q;
  int fired = 0;
  TimerId a = q.schedule(Time::us(1), [] {});
  q.run();  // `a` fires; its slot returns to the free list
  TimerId b = q.schedule(Time::us(2), [&] { ++fired; });
  EXPECT_EQ(b.key & kSlotMask, a.key & kSlotMask);  // slot recycled...
  EXPECT_NE(b.key, a.key);                          // ...under a new key
  q.cancel(a);  // stale handle must not cancel b
  q.run();
  EXPECT_EQ(fired, 1);
}

// cancel() frees the slot at once, while the cancelled entry stays wherever
// it sits until it surfaces. A schedule that reuses the slot must neither
// be killed by the dead entry nor fire twice, wherever that entry is: still
// staged, in the ready run, an L0 bucket, an L1 or L2 bucket (unlinked at
// cancel), or the far-future heap.
TEST(EventQueue, CancelledSlotIsReusedWhileItsEntryIsQueued) {
  const Time kTargets[] = {Time::ps(2000), Time::ns(100), Time::us(100),
                           Time::ms(10), Time::sec(1)};
  for (const bool staged : {true, false}) {
    for (const Time target : kTargets) {
      SCOPED_TRACE(::testing::Message()
                   << (staged ? "staged " : "flushed ") << target.picos());
      EventQueue q;
      std::vector<int> order;
      q.schedule(Time::ps(1000), [&] { order.push_back(0); });
      const TimerId a = q.schedule(target, [&] { order.push_back(1); });
      if (!staged) {
        ASSERT_TRUE(q.step());  // flushes `a`, fires the first event
      }
      q.cancel(a);
      const TimerId b =
          q.schedule(target + Time::ps(1), [&] { order.push_back(2); });
      EXPECT_EQ(b.key & kSlotMask, a.key & kSlotMask);
      q.cancel(a);  // stale: must not touch b
      EXPECT_EQ(q.pending(), staged ? 2u : 1u);
      q.run();
      EXPECT_EQ(order, (std::vector<int>{0, 2}));
      EXPECT_EQ(q.cancelled(), 1u);
      EXPECT_EQ(q.pool_slots(), 2u);
      EXPECT_EQ(q.wheel_entries(), 0u);
      EXPECT_EQ(q.heap_entries(), 0u);
    }
  }
}

// The RTO pattern of every window-based transport: each "ACK" cancels a
// connection's retransmission timer and re-arms it 10 ms out, between
// near-future events. Storage must track the live events, not the re-arms:
// a queue that keeps a cancelled timer's slot and wheel node until its
// deadline holds one of each per ACK of the last 10 ms (~7,700 here).
TEST(EventQueue, RtoChurnReclaimsStorageAtCancelTime) {
  constexpr int kTimers = 8;
  EventQueue q;
  TimerId rto[kTimers];
  uint64_t acks = 0;
  uint64_t rto_fires = 0;
  size_t max_slots = 0;
  size_t max_wheel_excess = 0;  // wheel entries beyond the live events
  std::function<void()> ack = [&] {
    const int i = static_cast<int>(acks++ % kTimers);
    q.cancel(rto[i]);
    rto[i] = q.schedule(q.now() + Time::ms(10), [&] { ++rto_fires; });
    // A near-future hop alongside the next ACK.
    q.schedule(q.now() + Time::ns(300 + 37 * (acks % 11)), [] {});
    if (q.now() < Time::ms(40)) {
      q.schedule(q.now() + Time::ns(1000 + 100 * (acks % 7)), ack);
    }
    max_slots = std::max(max_slots, q.pool_slots());
    if (q.wheel_entries() > q.pending()) {
      max_wheel_excess =
          std::max(max_wheel_excess, q.wheel_entries() - q.pending());
    }
  };
  for (int i = 0; i < kTimers; ++i) {
    rto[i] = q.schedule(Time::ms(10), [&] { ++rto_fires; });
  }
  q.schedule(Time::ns(1), ack);
  q.run();
  EXPECT_GT(acks, 30'000u);
  EXPECT_EQ(rto_fires, static_cast<uint64_t>(kTimers));  // only the last
  EXPECT_EQ(q.cancelled(), acks);
  // kTimers RTOs + the pending ACK + at most a few hops in flight.
  EXPECT_LE(max_slots, static_cast<size_t>(kTimers) + 6);
  EXPECT_LE(max_wheel_excess, 2u);
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.wheel_entries(), 0u);
}

TEST(EventQueue, DoubleCancelReleasesOnlyOnce) {
  EventQueue q;
  int fired = 0;
  TimerId a = q.schedule(Time::us(1), [&] { ++fired; });
  q.schedule(Time::us(2), [&] { ++fired; });
  q.cancel(a);
  q.cancel(a);  // second cancel sees a disarmed slot: no-op
  EXPECT_EQ(q.pending(), 1u);
  q.run();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, MoveOnlyCallbacksSupported) {
  // std::function required copyable targets; the SBO Callback must not.
  EventQueue q;
  auto p = std::make_unique<int>(42);
  int got = 0;
  q.schedule(Time::us(1), [p = std::move(p), &got] { got = *p; });
  q.run();
  EXPECT_EQ(got, 42);
}

TEST(EventQueue, LargeCapturesFallBackToHeapCorrectly) {
  EventQueue q;
  std::array<char, 256> big{};
  big[0] = 'x';
  big[255] = 'y';
  char first = 0, last = 0;
  q.schedule(Time::us(1), [big, &first, &last] {
    first = big[0];
    last = big[255];
  });
  TimerId c = q.schedule(Time::us(2), [big, &first] { first = 'z'; });
  q.cancel(c);  // cancelling a heap-backed callback must free it cleanly
  q.run();
  EXPECT_EQ(first, 'x');
  EXPECT_EQ(last, 'y');
}

#ifdef XPASS_SANITIZE
TEST(EventQueueDeathTest, PastTimeScheduleAbortsUnderSanitize) {
  // Under XPASS_SANITIZE a past-time schedule is a hard bug, not something
  // to paper over: the queue aborts with a diagnostic.
  EventQueue q;
  q.schedule(Time::us(2), [] {});
  q.run();  // now() == 2us
  EXPECT_DEATH(q.schedule(Time::us(1), [] {}), "past-time schedule");
}
#else
TEST(EventQueue, PastTimeScheduleClampsToNow) {
  // Release builds clamp a past-time schedule to now(): the event fires
  // immediately — but in FIFO position *after* events already queued at
  // now(), never "in the past" (which would reorder history and break the
  // determinism contract).
  EventQueue q;
  std::vector<int> order;
  q.schedule(Time::us(2), [&] {
    order.push_back(0);
    // Queued at the same instant, before the past-time event is scheduled.
    q.schedule(Time::us(2), [&] { order.push_back(1); });
    // t < now(): clamps to now() == 2us, fires after the event above.
    q.schedule(Time::us(1), [&] {
      order.push_back(2);
      EXPECT_EQ(q.now(), Time::us(2));
    });
  });
  q.schedule(Time::us(3), [&] { order.push_back(3); });
  q.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}
#endif

TEST(EventQueue, CancelFromWithinOwnCallbackWindow) {
  // A callback cancelling its own (already-fired) id must be inert even
  // though the slot was just recycled into the free list.
  EventQueue q;
  int fired = 0;
  TimerId self{};
  self = q.schedule(Time::us(1), [&] {
    q.cancel(self);  // stale by the time it runs
    ++fired;
  });
  q.schedule(Time::us(2), [&] { ++fired; });
  q.run();
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(q.pool_slots(), 2u);
}

}  // namespace
