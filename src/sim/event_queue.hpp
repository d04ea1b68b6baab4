// Discrete-event queue with cancellable timers, built on a key-validated
// slot pool, a hierarchical timing wheel for the near future, and a 4-ary
// heap for far-future overflow.
//
// Events with equal timestamps fire in scheduling order (FIFO tie-break via a
// monotonic sequence number) so runs are fully deterministic.
//
// Hybrid wheel/heap split: the hot path (credit pacing gaps, serializer
// kicks, shaper retries, per-hop deliveries) schedules at most microseconds
// ahead — those land in the timing wheel at O(1) per event. Watchdogs, RTOs
// and scenario fault plans beyond the wheel's ~137 ms span go to the heap
// (and stay there; an event never migrates between structures). The next
// event to fire is the (t, seq)-minimum across both, so the firing order is
// identical to a pure heap — tests/sim/timing_wheel_test.cpp proves it
// against a reference priority queue on randomized workloads.
//
// Design (and why it replaced the priority_queue + tombstone-set original):
//
//  * Every scheduled event owns a slot in a recycled pool, and its queue
//    entry carries the key (seq << 20 | slot). The slot records the key of
//    its live entry; an entry anywhere in the queue (staging buffer, heap,
//    wheel bucket or ready run) is live only while its slot still holds
//    that key. `TimerId` is the key, so `cancel()` is one comparison, and a
//    cancel on an id whose event already fired or was cancelled — the slot
//    is free or reused under a different key, since seqs are unique — is a
//    no-op. The original kept cancelled ids in an unordered_set that was
//    only cleaned when the id surfaced at the heap top, so cancelling an
//    already-fired timer — which every completed connection does in
//    stop() — left its id in the set forever. Here nothing is left behind.
//
//  * Storage is reclaimed at cancel time, not when the dead entry's
//    deadline comes round. `cancel()` frees the slot at once, and a
//    cancelled entry in an L1/L2 wheel bucket is unlinked in O(1) through
//    the node handle its slot keeps. Both pools are therefore bounded by
//    the live events, not by re-arms: every reactive baseline re-arms a
//    10 ms RTO on each ACK, so a queue that kept each dead timer until its
//    deadline held one per ACK of the last 10 ms. Entries the queue cannot
//    unlink cheaply (staged, heap-routed, in an L0 bucket or the ready run)
//    are dropped when they surface, without touching any slot.
//
//  * The heap stores 16-byte {time, key} entries in a 4-ary layout:
//    shallower than binary (fewer cache misses per sift), and a sibling
//    group spans at most two cache lines. The key compares identically to
//    the sequence number (seqs are unique, so the slot bits never decide),
//    keeping the FIFO tie-break while halving what a sift moves. Callbacks
//    never move through the heap. Slot and node indices never decide the
//    fire order, so reclaiming them early cannot change a trajectory.
//
//  * Routing is deferred: schedule() appends to an unsorted staging buffer,
//    and the wheel-vs-heap decision happens only when the queue is next
//    stepped. An event cancelled while still staged — the RTO-reschedule
//    and teardown pattern, where most timers never fire — is dropped at
//    flush without ever paying a wheel insert or a heap sift. The deferral
//    is trace-invisible: now() and the wheel cursor move only on fires, and
//    staged entries always flush before the next fire.
//
//  * Pop and push fuse: firing leaves a hole at the root, and the flush
//    drops the fired callback's successor event (the dominant "hold"
//    pattern) straight into it. A near-future successor sifts down a level
//    or two instead of paying the eager full-depth sift_down + sift_up
//    pair. Fire order is unaffected — the minimum is unique, whatever the
//    internal layout.
//
//  * Callbacks are sim::Callback (small-buffer optimized, move-only): the
//    common captures — a `this` pointer, or a Port* plus a Packet — live
//    inline in the slot, so schedule/fire does not touch the allocator.
//
//  * `pending()`/`empty()` are exact: cancel decrements the live count
//    immediately instead of "correcting it lazily" when the tombstone
//    surfaced, so drivers can poll emptiness without phantom events.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/callback.hpp"
#include "sim/time.hpp"
#include "sim/timing_wheel.hpp"

namespace xpass::sim {

// Opaque handle for cancelling a scheduled event: the key of its queue
// entry. Value-semantic and cheap; safe to cancel any number of times,
// including after the event fired or its slot was reused (no later entry
// carries the same key, so stale handles are inert).
struct TimerId {
  uint64_t key = 0;  // 0 = no event
  bool valid() const { return key != 0; }
};

class EventQueue {
 public:
  // Schedules `cb` at absolute time `t` (must be >= now()). A past-time `t`
  // is clamped to now() — enforced, not just documented, because a silently
  // accepted past-time event would fire out of order and break the FIFO
  // determinism contract. Under XPASS_SANITIZE a past-time schedule aborts.
  TimerId schedule(Time t, Callback cb);
  // Cancels a pending event in O(1); no-op if already fired or cancelled.
  void cancel(TimerId id);

  Time now() const { return now_; }
  bool empty() const { return live_count_ == 0; }
  // Exact count of scheduled-and-not-yet-fired-or-cancelled events.
  size_t pending() const { return live_count_; }

  // Fires the next event. Returns false if none remain.
  bool step();
  // Fires the next event only if it is scheduled at or before `t_end`.
  // Returns true iff an event fired; unlike run_until it never advances
  // now() past the last fired event, so budgeted callers can interleave
  // per-event limit checks with the exact same fire order.
  bool step_until(Time t_end);
  // Runs events until the queue is exhausted or the next event is after
  // `t_end`; leaves now() == t_end if exhausted earlier events only.
  void run_until(Time t_end);
  // Runs everything.
  void run();

  // Slot indices live in the low bits of an entry key; the pool is hard
  // capped at 2^20 concurrently pending events (enforced on pool growth).
  // The remaining 44 bits of sequence number cover ~1.7e13 scheduled events
  // per queue lifetime.
  static constexpr uint32_t kSlotBits = 20;

  // Introspection for tests and benchmarks.
  uint64_t fired() const { return fired_; }
  uint64_t cancelled() const { return cancelled_; }
  // Routing split: events accepted by the wheel vs sent to the heap.
  uint64_t wheel_scheduled() const { return wheel_scheduled_; }
  uint64_t heap_scheduled() const { return heap_scheduled_; }
  size_t wheel_entries() const { return wheel_.pending(); }
  // Total slots ever allocated: bounded by the max number of simultaneously
  // pending events, regardless of how many were cancelled over time.
  size_t pool_slots() const { return slots_.size(); }
  size_t heap_entries() const {
    return heap_.size() + staging_.size() - (hole_ ? 1 : 0);
  }

 private:
  static constexpr uint32_t kSlotMask = (1u << kSlotBits) - 1;
  static constexpr uint32_t kNil = TimingWheel::kNoNode;
  static uint32_t slot_of(uint64_t key) {
    return static_cast<uint32_t>(key) & kSlotMask;
  }

  struct Slot {
    Callback cb;
    uint64_t key = 0;  // key of the live entry; 0 = free
    // Free: the next free slot. Live: the wheel node holding the entry, or
    // kNil while it is staged, heap-routed or merged into the ready run.
    uint32_t link = kNil;
  };
  struct Entry {
    Time t;
    uint64_t key;  // (seq << kSlotBits) | slot
    uint32_t slot() const { return slot_of(key); }
  };
  static_assert(sizeof(Entry) == 16);

  // Whether the entry with `key` is still live (not cancelled or fired).
  bool live(uint64_t key) const { return slots_[slot_of(key)].key == key; }

  static bool earlier(const Entry& a, const Entry& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.key < b.key;  // == seq order: seqs are unique
  }

  uint32_t acquire_slot();
  void release_slot(uint32_t idx);
  void heap_push(Entry e);
  Entry heap_pop();
  void sift_up(size_t i);
  void sift_down(size_t i);
  // Routes staged events to the wheel or heap, dropping cancelled ones.
  void flush_staging();
  // Drops cancelled entries sitting at the heap top.
  void skim_cancelled();
  // Closes a root hole left by fire_top when no staged event claimed it.
  void fill_hole();
  // Pops the (flushed, live) top entry and invokes its callback.
  void fire_top();
  // Earliest live wheel entry (cancelled ones dropped on the way), or
  // nullptr if the wheel has nothing pending.
  const TimingWheel::Entry* next_wheel();
  // Pops and fires the wheel entry next_wheel() returned.
  void fire_wheel();

  TimingWheel wheel_;           // near-future events
  std::vector<Entry> staging_;  // scheduled, not yet heapified
  std::vector<Entry> heap_;     // 4-ary min-heap on (t, seq)
  std::vector<Slot> slots_;
  uint32_t free_head_ = kNil;
  // True while heap_[0] is a fired event's stale entry, waiting to be
  // overwritten by the next staged event (pop-push fusion; see fire_top).
  bool hole_ = false;
  Time now_;
  uint64_t next_seq_ = 1;
  size_t live_count_ = 0;
  uint64_t fired_ = 0;
  uint64_t cancelled_ = 0;
  uint64_t wheel_scheduled_ = 0;
  uint64_t heap_scheduled_ = 0;
};

}  // namespace xpass::sim
