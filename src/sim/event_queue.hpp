// Discrete-event queue with cancellable timers, built on a generation-tagged
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
//  * Every scheduled event owns a slot in a recycled pool; `TimerId` is the
//    pair {slot index, slot generation}. `cancel()` checks the generation and
//    disarms the slot — O(1), no lookup structure. A cancel on an id whose
//    event already fired (or was already cancelled, or whose slot was since
//    reused) sees a stale generation or a disarmed slot and is a no-op. The
//    original kept cancelled ids in an unordered_set that was only cleaned
//    when the id surfaced at the heap top, so cancelling an already-fired
//    timer — which every completed connection does in stop() — left its id
//    in the set forever. Here there is nothing to leak: the slot is
//    reclaimed exactly when its heap entry pops, structurally.
//
//  * The heap stores 16-byte {time, seq<<20|slot} entries in a 4-ary
//    layout: shallower than binary (fewer cache misses per sift), and a
//    sibling group spans at most two cache lines. The packed second word
//    compares identically to the sequence number (seqs are unique, so the
//    slot bits never decide), keeping the FIFO tie-break while halving
//    what a sift moves. Callbacks never move through the heap.
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

// Opaque handle for cancelling a scheduled event. Value-semantic and cheap;
// safe to cancel any number of times, including after the event fired or the
// slot was reused (the generation tag makes stale handles inert).
struct TimerId {
  static constexpr uint32_t kInvalidSlot = 0xffffffffu;
  uint32_t slot = kInvalidSlot;
  uint32_t gen = 0;
  bool valid() const { return slot != kInvalidSlot; }
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

  // Introspection for tests and benchmarks.
  uint64_t fired() const { return fired_; }
  uint64_t cancelled() const { return cancelled_; }
  // Routing split: events accepted by the wheel vs sent to the heap.
  uint64_t wheel_scheduled() const { return wheel_scheduled_; }
  uint64_t heap_scheduled() const { return heap_scheduled_; }
  size_t wheel_entries() const { return wheel_.pending(); }
  // Total slots ever allocated: bounded by the max number of simultaneously
  // scheduled events, regardless of how many were cancelled over time.
  size_t pool_slots() const { return slots_.size(); }
  size_t heap_entries() const {
    return heap_.size() + staging_.size() - (hole_ ? 1 : 0);
  }

 private:
  struct Slot {
    Callback cb;
    uint32_t gen = 0;  // bumped on release; stale TimerIds stop matching
    uint32_t next_free = TimerId::kInvalidSlot;
    bool armed = false;  // false = empty, cancelled, or already fired
  };
  // Slot indices live in the low bits of the packed key; the pool is hard
  // capped at 2^20 concurrently pending events (enforced on pool growth).
  // The remaining 44 bits of sequence number cover ~1.7e13 scheduled events
  // per queue lifetime.
  static constexpr uint32_t kSlotBits = 20;
  static constexpr uint32_t kSlotMask = (1u << kSlotBits) - 1;
  struct Entry {
    Time t;
    uint64_t key;  // (seq << kSlotBits) | slot
    uint32_t slot() const { return static_cast<uint32_t>(key) & kSlotMask; }
  };
  static_assert(sizeof(Entry) == 16);

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
  // Moves staged events into the heap, dropping already-cancelled ones.
  void flush_staging();
  // Reclaims cancelled entries sitting at the heap top.
  void skim_cancelled();
  // Closes a root hole left by fire_top when no staged event claimed it.
  void fill_hole();
  // Pops the (flushed, armed) top entry and invokes its callback.
  void fire_top();
  // Earliest live wheel entry (cancelled ones reclaimed on the way), or
  // nullptr if the wheel has nothing pending.
  const TimingWheel::Entry* next_wheel();
  // Pops and fires the wheel entry next_wheel() returned.
  void fire_wheel();

  TimingWheel wheel_;           // near-future events
  std::vector<Entry> staging_;  // scheduled, not yet heapified
  std::vector<Entry> heap_;     // 4-ary min-heap on (t, seq)
  std::vector<Slot> slots_;
  uint32_t free_head_ = TimerId::kInvalidSlot;
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
