#include "sim/timing_wheel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "bench/seed_event_queue.hpp"
#include "sim/event_queue.hpp"

namespace {

using xpass::sim::EventQueue;
using xpass::sim::Time;
using xpass::sim::TimingWheel;

TEST(TimingWheel, EmptyPeeksNull) {
  TimingWheel w;
  EXPECT_EQ(w.peek(), nullptr);
  EXPECT_TRUE(w.empty());
  EXPECT_EQ(w.pending(), 0u);
}

TEST(TimingWheel, PopsInTimeThenKeyOrder) {
  TimingWheel w;
  // Same 8.192ns bucket (ticks of t=100..103ps are all 0), distinct times
  // and keys; insertion order deliberately scrambled.
  ASSERT_TRUE(w.try_schedule(Time::ps(103), 3));
  ASSERT_TRUE(w.try_schedule(Time::ps(100), 1));
  ASSERT_TRUE(w.try_schedule(Time::ps(100), 0));
  ASSERT_TRUE(w.try_schedule(Time::ps(101), 2));
  std::vector<uint64_t> keys;
  while (const TimingWheel::Entry* e = w.peek()) {
    keys.push_back(e->key);
    w.pop();
  }
  EXPECT_EQ(keys, (std::vector<uint64_t>{0, 1, 2, 3}));
}

TEST(TimingWheel, SpansAllThreeLevelsAndRefusesBeyond) {
  TimingWheel w;
  EXPECT_TRUE(w.try_schedule(Time::ns(10), 0));    // L0
  EXPECT_TRUE(w.try_schedule(Time::us(100), 1));   // L1
  EXPECT_TRUE(w.try_schedule(Time::ms(100), 2));   // L2
  EXPECT_FALSE(w.try_schedule(Time::ms(200), 3));  // beyond ~137 ms span
  std::vector<uint64_t> keys;
  while (const TimingWheel::Entry* e = w.peek()) {
    keys.push_back(e->key);
    w.pop();
  }
  EXPECT_EQ(keys, (std::vector<uint64_t>{0, 1, 2}));
}

TEST(TimingWheel, LateInsertMergesIntoReadyRun) {
  TimingWheel w;
  // Drain a bucket at ~1us, then insert an entry whose bucket is already
  // behind the cursor but whose time is after the consumed head: it must
  // pop in exact (t, key) position.
  ASSERT_TRUE(w.try_schedule(Time::ns(1000), 1));
  ASSERT_TRUE(w.try_schedule(Time::ns(1001), 3));
  const TimingWheel::Entry* e = w.peek();
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->key, 1u);
  w.pop();  // consumed: now() conceptually at 1000ns
  // Bucket for 1000.5ns is drained; key 2 sorts between the consumed 1
  // and the pending 3.
  ASSERT_TRUE(w.try_schedule(Time::ps(1000500), 2));
  e = w.peek();
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->key, 2u);
  w.pop();
  e = w.peek();
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->key, 3u);
  w.pop();
  EXPECT_EQ(w.peek(), nullptr);
}

TEST(TimingWheel, SyncReanchorsEmptyWheel) {
  TimingWheel w;
  // A fresh wheel anchored at 0 refuses t = 1 s (far beyond span)...
  EXPECT_FALSE(w.try_schedule(Time::sec(1), 1));
  // ...but after syncing to 1 s, near-future times are accepted again.
  w.sync(Time::sec(1));
  EXPECT_TRUE(w.try_schedule(Time::sec(1) + Time::us(5), 1));
  const TimingWheel::Entry* e = w.peek();
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->t, Time::sec(1) + Time::us(5));
}

TEST(TimingWheel, SteadyStateRecyclesNodes) {
  // Schedule/drain in a rolling window: the node pool must stop growing
  // once it covers the high-water mark of concurrently pending entries.
  TimingWheel w;
  uint64_t key = 0;
  Time t;
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(w.try_schedule(t + Time::ns(100 * (i + 1)), key++));
  }
  const size_t pool_after_warmup = w.node_pool_size();
  for (int round = 0; round < 10000; ++round) {
    const TimingWheel::Entry* e = w.peek();
    ASSERT_NE(e, nullptr);
    t = e->t;
    w.pop();
    ASSERT_TRUE(w.try_schedule(t + Time::us(7), key++));
  }
  EXPECT_EQ(w.node_pool_size(), pool_after_warmup);
}

// Pops at most `cap` entries. A corrupted chain drains extra (freed) or
// foreign nodes, which the cap turns into a failed comparison instead of a
// walk off the end of the wheel's bookkeeping.
std::vector<uint64_t> drain_keys(TimingWheel& w, size_t cap) {
  std::vector<uint64_t> keys;
  while (keys.size() < cap) {
    const TimingWheel::Entry* e = w.peek();
    if (e == nullptr) break;
    keys.push_back(e->key);
    w.pop();
  }
  return keys;
}

// remove() at L1 and L2: every ordered pair of chain positions out of five
// nodes in one bucket (head, middle and tail, and each node's neighbour
// after its predecessor or successor went first), then the only node of a
// bucket. The five share one L0 bucket too, so a corrupted chain surfaces
// in a single drain.
TEST(TimingWheel, RemoveUnlinksAnyChainPosition) {
  for (const Time base : {Time::us(100), Time::ms(10)}) {  // L1, L2
    for (int first = 0; first < 5; ++first) {
      for (int second = 0; second < 5; ++second) {
        if (second == first) continue;
        SCOPED_TRACE(::testing::Message() << base.picos() << " remove "
                                          << first << " then " << second);
        TimingWheel w;
        uint32_t node[5];
        // Linked at the chain head: key 5 is the head, key 1 the tail.
        for (int i = 0; i < 5; ++i) {
          ASSERT_TRUE(w.try_schedule(base + Time::ps(i), i + 1, &node[i]));
          ASSERT_NE(node[i], TimingWheel::kNoNode);
        }
        EXPECT_TRUE(w.remove(node[first], first + 1));
        EXPECT_FALSE(w.remove(node[first], first + 1));  // already gone
        EXPECT_TRUE(w.remove(node[second], second + 1));
        EXPECT_EQ(w.pending(), 3u);
        std::vector<uint64_t> want;
        for (int i = 0; i < 5; ++i) {
          if (i != first && i != second) want.push_back(i + 1);
        }
        ASSERT_EQ(drain_keys(w, want.size() + 1), want);
        EXPECT_TRUE(w.empty());
        EXPECT_EQ(w.node_pool_size(), 5u);
      }
    }
    SCOPED_TRACE(::testing::Message() << base.picos() << " only node");
    TimingWheel w;
    uint32_t only;
    ASSERT_TRUE(w.try_schedule(base, 7, &only));
    ASSERT_TRUE(w.try_schedule(base + Time::us(600), 8));  // a later bucket
    EXPECT_TRUE(w.remove(only, 7));
    EXPECT_EQ(w.pending(), 1u);
    ASSERT_EQ(drain_keys(w, 2), (std::vector<uint64_t>{8}));
    EXPECT_EQ(w.peek(), nullptr);
  }
}

// Removed nodes are recycled, so a wheel whose upper-level entries are all
// cancelled before they cascade keeps a node pool the size of its live
// entries; what does cascade still pops in exact (t, key) order.
TEST(TimingWheel, RemoveThenCascade) {
  TimingWheel w;
  uint64_t key = 1;
  std::vector<std::pair<Time, uint64_t>> kept;
  for (int round = 0; round < 200; ++round) {
    uint32_t node;
    const Time t = Time::us(50 + 7 * round);
    // Three entries per round across L1 and L2; two are cancelled at once
    // (the RTO re-arm), the third is kept and must cascade intact.
    ASSERT_TRUE(w.try_schedule(t + Time::ms(9), key, &node));
    EXPECT_TRUE(w.remove(node, key++));
    ASSERT_TRUE(w.try_schedule(t, key, &node));
    EXPECT_TRUE(w.remove(node, key++));
    ASSERT_TRUE(w.try_schedule(t + Time::ms(round % 3), key));
    kept.emplace_back(t + Time::ms(round % 3), key++);
  }
  EXPECT_EQ(w.pending(), kept.size());
  EXPECT_LE(w.node_pool_size(), kept.size() + 1);
  std::sort(kept.begin(), kept.end());
  std::vector<uint64_t> want;
  for (const auto& [t, k] : kept) want.push_back(k);
  ASSERT_EQ(drain_keys(w, want.size() + 1), want);
  EXPECT_TRUE(w.empty());
}

// remove() must leave alone any node it can no longer unlink: one drained
// into the ready run (its entry pops anyway; the owning queue skips it),
// one on an L0 chain, and a freed node reused for another key.
TEST(TimingWheel, RemoveIsANoOpOnceANodeLeftItsChain) {
  TimingWheel w;
  uint32_t n1, n2, l0, late;
  ASSERT_TRUE(w.try_schedule(Time::us(100), 1, &n1));
  ASSERT_TRUE(w.try_schedule(Time::us(100) + Time::ps(1), 2, &n2));
  const TimingWheel::Entry* e = w.peek();  // cascades and drains both
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->key, 1u);
  EXPECT_FALSE(w.remove(n1, 1));  // drained: in the ready run now
  EXPECT_EQ(w.pending(), 2u);
  // Late insert behind the cursor: merged into the ready run, no node.
  ASSERT_TRUE(w.try_schedule(Time::us(100) + Time::ps(2), 3, &late));
  EXPECT_EQ(late, TimingWheel::kNoNode);
  // The drained nodes are free; the next bucketed entry reuses one.
  ASSERT_TRUE(w.try_schedule(Time::us(101), 4, &l0));
  ASSERT_TRUE(l0 == n1 || l0 == n2);
  EXPECT_FALSE(w.remove(l0, l0 == n1 ? 1 : 2));  // stale key
  EXPECT_FALSE(w.remove(l0, 4));  // L0 chains have no back-links
  EXPECT_EQ(w.pending(), 4u);
  EXPECT_EQ(drain_keys(w, 5), (std::vector<uint64_t>{1, 2, 3, 4}));
}

// A randomized, self-perpetuating event workload that replays identically on
// any queue with the EventQueue schedule/cancel/now API. Random draws happen
// only in start() and inside callbacks, so two queues that fire the same
// (t, seq) order make the same draws and calls; the first divergence changes
// everything after it.
//
// Each event spawns 0-3 children at horizons from zero (a quarter of them:
// same-time FIFO ties) through sub-bucket, ns and us to beyond the wheel's
// ~137 ms span (heap overflow), plus random cancels (pending, fired or
// already-cancelled ids), the RTO pattern (cancel the earliest pending
// timer, re-arm it later) and cancel-before-step. An epoch stops spawning
// after a fixed budget; once everything has drained, the queue idles for
// longer than the wheel's span before the next epoch plants 16 seed events,
// so the wheel restarts from a stale window.
template <class Q>
class Workload {
 public:
  Workload(Q& q, uint64_t seed) : q_(q), s_(seed) {}
  // Scheduled callbacks hold `this`.
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  void start() { plant_epoch(); }
  const std::vector<std::pair<int64_t, int>>& fired() const { return fired_; }
  int epochs_left() const { return epochs_left_; }

 private:
  using Id = decltype(std::declval<Q&>().schedule(Time::zero(), [] {}));
  static constexpr int kEventsPerEpoch = 1000;

  uint64_t next() {
    s_ ^= s_ << 13;
    s_ ^= s_ >> 7;
    s_ ^= s_ << 17;
    return s_;
  }

  Time delay() {
    const uint64_t r = next() % 100;
    if (r < 25) return Time::zero();  // same-time tie with its siblings
    if (r < 50) return Time::ps(static_cast<int64_t>(next() % 20000));
    if (r < 70) return Time::ns(static_cast<int64_t>(next() % 5000));
    if (r < 90) return Time::us(static_cast<int64_t>(next() % 2000));
    // Straddles / exceeds the wheel span: heap overflow territory.
    return Time::ms(static_cast<int64_t>(next() % 300));
  }

  // Ids are handed out in scheduling order, so (t, id) orders like the
  // queues' (t, seq).
  int add(Time t) {
    const int id = static_cast<int>(timers_.size());
    timers_.push_back(q_.schedule(t, [this, id] { fire(id); }));
    at_.push_back(t.picos());
    pending_.emplace(t.picos(), id);
    return id;
  }

  void cancel(int id) {
    q_.cancel(timers_[id]);
    pending_.erase({at_[id], id});
  }

  void plant_epoch() {
    --epochs_left_;
    budget_ = kEventsPerEpoch;
    for (int i = 0; i < 16; ++i) {
      add(q_.now() + (next() % 4 == 0
                          ? Time::zero()
                          : Time::ns(static_cast<int64_t>(next() % 1000))));
    }
  }

  void fire(int id) {
    pending_.erase({q_.now().picos(), id});
    fired_.emplace_back(q_.now().picos(), id);
    if (id == restart_id_) {
      plant_epoch();
    } else if (budget_ > 0) {
      --budget_;
      const int kids = static_cast<int>(next() % 4);
      for (int k = 0; k < kids; ++k) {
        add(q_.now() + delay());
        if (next() % 8 == 0) cancel(static_cast<int>(next() % timers_.size()));
      }
      if (next() % 16 == 0 && !pending_.empty()) {
        // RTO pattern: the earliest pending timer is cancelled and re-armed
        // 1-20 ms out, filling L2 chains that random cancels then hit at
        // every position.
        cancel(pending_.begin()->second);
        add(q_.now() + Time::us(1000 + static_cast<int64_t>(next() % 19000)));
      }
      if (next() % 16 == 0) cancel(add(q_.now() + delay()));
    }
    if (pending_.empty() && epochs_left_ > 0) {
      // Drained: idle past the wheel's span before the next epoch.
      restart_id_ = add(q_.now() + Time::ms(140 + next() % 300));
    }
  }

  Q& q_;
  uint64_t s_;
  std::vector<Id> timers_;
  std::vector<int64_t> at_;
  std::set<std::pair<int64_t, int>> pending_;
  std::vector<std::pair<int64_t, int>> fired_;
  int epochs_left_ = 3;
  int budget_ = 0;
  int restart_id_ = -1;
};

// Differential check of the hybrid (wheel + heap) EventQueue against the
// reference heap bench_core times against: the same randomized workload
// must fire in the identical (t, id) order on both. The reference runs
// straight through; the EventQueue is driven through random run_until /
// step_until horizons (zero, same-instant, near, and deep into idle gaps).
TEST(TimingWheel, HybridMatchesHeapOnlyOnRandomizedWorkload) {
  for (uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE(seed);
    const uint64_t workload_seed = seed * 0x2545f4914f6cdd1dULL;

    xpass::bench::SeedEventQueue ref_q;
    Workload<xpass::bench::SeedEventQueue> ref(ref_q, workload_seed);
    ref.start();
    ref_q.run();

    EventQueue q;
    Workload<EventQueue> hybrid(q, workload_seed);
    hybrid.start();
    uint64_t h = seed;
    while (!q.empty()) {
      h = h * 6364136223846793005ULL + 1442695040888963407ULL;
      const uint64_t r = h >> 33;
      Time horizon;
      switch (r % 4) {
        case 0: horizon = Time::zero(); break;
        case 1: horizon = Time::ns(static_cast<int64_t>(r % 3000)); break;
        case 2: horizon = Time::us(static_cast<int64_t>(r % 3000)); break;
        default: horizon = Time::ms(static_cast<int64_t>(r % 300)); break;
      }
      if ((r >> 8) % 2 == 0) {
        q.run_until(q.now() + horizon);
      } else {
        while (q.step_until(q.now() + horizon)) {
        }
      }
    }

    ASSERT_EQ(ref.epochs_left(), 0);
    ASSERT_GT(ref.fired().size(), 3000u);
    EXPECT_GT(q.wheel_scheduled(), 0u);
    EXPECT_GT(q.heap_scheduled(), 0u);
    size_t ties = 0;
    for (size_t i = 1; i < ref.fired().size(); ++i) {
      ties += ref.fired()[i].first == ref.fired()[i - 1].first;
    }
    EXPECT_GT(ties, 100u);
    EXPECT_EQ(hybrid.fired(), ref.fired());
  }
}

TEST(TimingWheel, HybridQueueRoutesHotEventsToWheel) {
  EventQueue q;
  for (int i = 0; i < 100; ++i) {
    q.schedule(Time::ns(10 * i), [] {});
  }
  q.schedule(Time::sec(1), [] {});  // far future: heap
  q.run();
  // Routing is decided at flush (see EventQueue::schedule), so the split is
  // observable once the queue has stepped.
  EXPECT_EQ(q.wheel_scheduled(), 100u);
  EXPECT_EQ(q.heap_scheduled(), 1u);
  EXPECT_EQ(q.fired(), 101u);
}

}  // namespace
