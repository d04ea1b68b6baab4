// Hierarchical timing wheel: the near-future half of the event queue.
//
// The credit-pacing hot path schedules almost exclusively a few hundred
// nanoseconds to a few microseconds ahead (credit gaps, serializer kicks,
// shaper token waits, per-hop deliveries). A comparison heap pays O(log n)
// sifts for that traffic; a timing wheel pays O(1) bucket pushes and
// amortized-O(1) cursor advances. This wheel covers the near future only —
// the owning EventQueue keeps its 4-ary heap as the sparse far-future
// overflow (RTOs, watchdogs, scenario fault plans) and merges the two
// streams by (time, sequence), so global FIFO determinism is preserved
// bit-for-bit regardless of which side an event lands on.
//
// Layout: 3 levels x 256 slots. Level 0 buckets are 2^13 ps (8.192 ns) wide
// — finer than a minimum-frame serialization time at 100G, so hot events
// rarely share a bucket. Spans: L0 ~2.1 us, L1 ~537 us, L2 ~137 ms; beyond
// that try_schedule() refuses and the caller heaps the event. Entries are
// placed by the absolute bits of their tick (tick = picos >> 13): slot
// index at level L is (tick >> 8L) & 255. An entry bound for the *next*
// window of its level lands behind the cursor, which is safe: the cursor
// only scans forward of itself, and crossing a window boundary cascades the
// next upper-level slot before rescanning.
//
// Draining: the cursor jumps (via per-level occupancy bitmaps) to the next
// non-empty L0 slot, unlinks its chain, and sorts the entries by (t, key)
// into a `ready_` run consumed through a cursor. A schedule() that lands at
// or before the drained boundary — possible when a heap-side event fires
// earlier and schedules into an already-drained bucket — is merge-inserted
// into the unconsumed tail of the run, which keeps the pop order exact
// without ever rewinding the wheel.
//
// Removal: the owning queue frees a cancelled event's storage at cancel
// time, so remove() unlinks a bucketed node in O(1). L1 and L2 chains are
// doubly linked for it; the back-link of a chain's first node encodes the
// head's level and slot. L0 chains stay singly linked: an L0 bucket drains
// within ~2.1 us of any schedule, so a node cancelled there is simply
// dropped by the queue when it surfaces. Back-linking L0 would add stores
// to every hot-path insert to save at most ~2.1 us of node lifetime.
//
// Nodes live in a recycled pool with an intrusive freelist; steady-state
// operation allocates nothing.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace xpass::sim {

class TimingWheel {
 public:
  TimingWheel();

  struct Entry {
    Time t;
    uint64_t key;  // EventQueue's packed (seq << kSlotBits) | slot
  };

  static constexpr uint32_t kTickBits = 13;  // 8.192 ns buckets
  static constexpr uint32_t kLevelBits = 8;  // 256 slots per level
  static constexpr uint32_t kLevels = 3;
  static constexpr uint32_t kSlots = 1u << kLevelBits;
  // Ticks covered before overflow: 2^24 ticks = ~137 ms.
  static constexpr uint64_t kSpanTicks = 1ull << (kLevels * kLevelBits);

  // try_schedule's report for an entry that went straight into the ready
  // run rather than a bucket node.
  static constexpr uint32_t kNoNode = 0xffffffffu;

  // Accepts `t` if it lies within the wheel's span of the drain cursor;
  // returns false for far-future events (the caller's heap handles those).
  // `t` may be at or before the drained boundary (see file comment); it
  // must not be before the owning queue's now(). If `node` is given, it
  // receives the bucket node holding the entry (a handle for remove()), or
  // kNoNode.
  bool try_schedule(Time t, uint64_t key, uint32_t* node = nullptr);

  // Unlinks and frees `node` if it still holds `key` and sits on an L1 or
  // L2 chain; returns whether it did. A node already drained into the
  // ready run, freed, reused for another key, or on an L0 chain is left
  // alone, so the caller must still skip such an entry when it surfaces.
  // `key` must be nonzero: drained and freed nodes hold 0.
  bool remove(uint32_t node, uint64_t key);

  // Earliest pending entry, or nullptr if the wheel is empty. Advances the
  // cursor and drains buckets as needed (mutating, amortized O(1)).
  const Entry* peek();
  // Removes the entry peek() just returned. Only valid after a non-null
  // peek() with no intervening try_schedule.
  Entry pop();

  // Fast-forwards an *empty* wheel's cursor to `now`, re-anchoring the span
  // window after a stretch of purely heap-side activity.
  void sync(Time now);

  size_t pending() const { return pending_; }
  bool empty() const { return pending_ == 0; }

  // Introspection for tests and benchmarks.
  uint64_t accepted() const { return accepted_; }
  size_t node_pool_size() const { return nodes_.size(); }

 private:
  struct Node {
    Time t;
    uint64_t key;   // 0 once drained or freed
    uint32_t next;  // chain successor, or next free node
    // L1/L2: predecessor node, or head_tag() of the chain's bucket.
    // L0: kNil (no back-links; see file comment).
    uint32_t prev;
  };
  static_assert(sizeof(Node) == 24);
  static constexpr uint32_t kNil = kNoNode;
  static constexpr uint32_t kSlotMask = kSlots - 1;
  // Back-link tag of a chain's first node: node indices stay below 2^31
  // (the owning queue caps pending events at 2^20).
  static constexpr uint32_t kHeadTag = 1u << 31;
  static uint32_t head_tag(uint32_t level, uint32_t slot) {
    return kHeadTag | (level << kLevelBits) | slot;
  }
  static constexpr size_t kWords = kSlots / 64;

  static bool entry_earlier(const Entry& a, const Entry& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.key < b.key;
  }
  static uint64_t tick_of(Time t) {
    return static_cast<uint64_t>(t.picos()) >> kTickBits;
  }

  uint32_t acquire_node(Time t, uint64_t key);
  void free_node(uint32_t node);
  void link(uint32_t level, uint32_t slot, uint32_t node);
  // Re-buckets every node of an upper-level slot after a window crossing.
  void cascade(uint32_t level, uint32_t slot);
  // Places a node by its tick relative to cur_tick_ (never "late": cascade
  // and insert call this only with tick >= cur_tick_).
  void place(uint32_t node);
  // Moves the cursor to the next occupied L0 bucket and drains it into
  // ready_. Returns false if no bucketed entries remain.
  bool advance_and_drain();
  // First occupied slot index >= from at `level`, or -1.
  int find_occupied(uint32_t level, uint32_t from) const;

  std::vector<Node> nodes_;
  uint32_t free_head_ = kNil;
  uint32_t heads_[kLevels][kSlots];
  uint64_t bitmap_[kLevels][kWords];

  // All ticks < cur_tick_ are drained; bucketed entries sit at >= cur_tick_.
  uint64_t cur_tick_ = 0;
  // Window bases (in ticks) whose upper-level cascades have been applied.
  uint64_t l0_window_ = 0;
  uint64_t l1_window_ = 0;

  // Sorted run of drained (and late-inserted) entries; consumed via cursor.
  std::vector<Entry> ready_;
  size_t ready_pos_ = 0;

  size_t pending_ = 0;    // ready tail + bucketed
  size_t bucketed_ = 0;   // entries currently linked in slots
  uint64_t accepted_ = 0;
};

}  // namespace xpass::sim
