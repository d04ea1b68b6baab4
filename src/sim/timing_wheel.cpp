#include "sim/timing_wheel.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstring>

namespace xpass::sim {

TimingWheel::TimingWheel() {
  std::memset(heads_, 0xff, sizeof(heads_));  // all kNil
  std::memset(bitmap_, 0, sizeof(bitmap_));
}

uint32_t TimingWheel::acquire_node(Time t, uint64_t key) {
  uint32_t idx;
  if (free_head_ != kNil) {
    idx = free_head_;
    free_head_ = nodes_[idx].next;
  } else {
    idx = static_cast<uint32_t>(nodes_.size());
    nodes_.emplace_back();
  }
  nodes_[idx].t = t;
  nodes_[idx].key = key;
  return idx;
}

void TimingWheel::free_node(uint32_t node) {
  nodes_[node].key = 0;  // stale remove() handles stop matching
  nodes_[node].next = free_head_;
  free_head_ = node;
}

void TimingWheel::link(uint32_t level, uint32_t slot, uint32_t node) {
  uint32_t& head = heads_[level][slot];
  Node& n = nodes_[node];
  n.next = head;
  if (level == 0) {
    n.prev = kNil;
  } else {
    n.prev = head_tag(level, slot);
    if (head != kNil) nodes_[head].prev = node;
  }
  head = node;
  bitmap_[level][slot >> 6] |= 1ull << (slot & 63);
}

void TimingWheel::place(uint32_t node) {
  const uint64_t tick = tick_of(nodes_[node].t);
  assert(tick >= cur_tick_);
  const uint64_t delta = tick - cur_tick_;
  if (delta < kSlots) {
    link(0, tick & kSlotMask, node);
  } else if (delta < (kSlots << kLevelBits)) {
    link(1, (tick >> kLevelBits) & kSlotMask, node);
  } else {
    link(2, (tick >> (2 * kLevelBits)) & kSlotMask, node);
  }
}

bool TimingWheel::try_schedule(Time t, uint64_t key, uint32_t* node) {
  const uint64_t tick = tick_of(t);
  if (tick < cur_tick_) {
    // Already-drained bucket (a heap-side event fired earlier and scheduled
    // here): merge into the unconsumed tail of the ready run. The entry's t
    // is >= the queue's now(), and its seq exceeds every consumed entry's,
    // so the insertion point always lands at or after the consume cursor.
    const Entry e{t, key};
    ready_.insert(
        std::upper_bound(ready_.begin() + static_cast<ptrdiff_t>(ready_pos_),
                         ready_.end(), e, entry_earlier),
        e);
    if (node != nullptr) *node = kNoNode;
    ++pending_;
    ++accepted_;
    return true;
  }
  if (tick - cur_tick_ >= kSpanTicks) return false;
  const uint32_t idx = acquire_node(t, key);
  place(idx);
  if (node != nullptr) *node = idx;
  ++pending_;
  ++bucketed_;
  ++accepted_;
  return true;
}

bool TimingWheel::remove(uint32_t node, uint64_t key) {
  assert(key != 0 && node < nodes_.size());
  const Node& n = nodes_[node];
  if (n.key != key || n.prev == kNil) return false;
  if (n.prev & kHeadTag) {
    const uint32_t level = (n.prev & ~kHeadTag) >> kLevelBits;
    const uint32_t slot = n.prev & kSlotMask;
    heads_[level][slot] = n.next;
    if (n.next == kNil) bitmap_[level][slot >> 6] &= ~(1ull << (slot & 63));
  } else {
    nodes_[n.prev].next = n.next;
  }
  if (n.next != kNil) nodes_[n.next].prev = n.prev;
  free_node(node);
  --pending_;
  --bucketed_;
  return true;
}

void TimingWheel::cascade(uint32_t level, uint32_t slot) {
  uint32_t node = heads_[level][slot];
  heads_[level][slot] = kNil;
  bitmap_[level][slot >> 6] &= ~(1ull << (slot & 63));
  while (node != kNil) {
    const uint32_t next = nodes_[node].next;
    place(node);
    node = next;
  }
}

int TimingWheel::find_occupied(uint32_t level, uint32_t from) const {
  if (from >= kSlots) return -1;
  uint64_t word = bitmap_[level][from >> 6] & (~0ull << (from & 63));
  for (size_t w = from >> 6;;) {
    if (word != 0) {
      return static_cast<int>((w << 6) + std::countr_zero(word));
    }
    if (++w >= kWords) return -1;
    word = bitmap_[level][w];
  }
}

bool TimingWheel::advance_and_drain() {
  while (bucketed_ > 0) {
    // Materialize the cursor's window: crossing an L0-window boundary
    // cascades the upper-level slot the new window maps to (and crossing an
    // L1-window boundary cascades from L2 first). The cursor never skips a
    // non-empty bucket, so every bucketed entry is eventually reached.
    const uint64_t base = cur_tick_ & ~static_cast<uint64_t>(kSlotMask);
    if (base != l0_window_) {
      const uint64_t l1_base =
          cur_tick_ & ~((static_cast<uint64_t>(kSlotMask) << kLevelBits) |
                        kSlotMask);
      if (l1_base != l1_window_) {
        cascade(2, (cur_tick_ >> (2 * kLevelBits)) & kSlotMask);
        l1_window_ = l1_base;
      }
      cascade(1, (cur_tick_ >> kLevelBits) & kSlotMask);
      l0_window_ = base;
    }
    const int s = find_occupied(0, static_cast<uint32_t>(cur_tick_) & kSlotMask);
    if (s < 0) {
      cur_tick_ = base + kSlots;  // L0 window exhausted; enter the next one
      continue;
    }
    // Drain bucket `s` into the ready run, sorted by (t, key).
    const uint32_t slot = static_cast<uint32_t>(s);
    uint32_t node = heads_[0][slot];
    heads_[0][slot] = kNil;
    bitmap_[0][slot >> 6] &= ~(1ull << (slot & 63));
    assert(node != kNil);
    while (node != kNil) {
      ready_.push_back(Entry{nodes_[node].t, nodes_[node].key});
      const uint32_t next = nodes_[node].next;
      free_node(node);
      node = next;
      --bucketed_;
    }
    std::sort(ready_.begin(), ready_.end(), entry_earlier);
    cur_tick_ = base + slot + 1;
    return true;
  }
  return false;
}

void TimingWheel::sync(Time now) {
  // Only legal on an empty wheel: fast-forwards the cursor so the span
  // check in try_schedule() is anchored at the present instead of wherever
  // the last drained bucket left it. Every slot is empty, so the skipped
  // windows are marked materialized without cascading anything.
  assert(pending_ == 0 && bucketed_ == 0);
  const uint64_t tick = tick_of(now);
  if (tick <= cur_tick_) return;
  cur_tick_ = tick;
  l0_window_ = tick & ~static_cast<uint64_t>(kSlotMask);
  l1_window_ =
      tick &
      ~((static_cast<uint64_t>(kSlotMask) << kLevelBits) | kSlotMask);
}

const TimingWheel::Entry* TimingWheel::peek() {
  if (ready_pos_ < ready_.size()) return &ready_[ready_pos_];
  ready_.clear();
  ready_pos_ = 0;
  if (!advance_and_drain()) return nullptr;
  return &ready_[ready_pos_];
}

TimingWheel::Entry TimingWheel::pop() {
  assert(ready_pos_ < ready_.size());
  const Entry e = ready_[ready_pos_++];
  --pending_;
  if (ready_pos_ == ready_.size()) {
    ready_.clear();
    ready_pos_ = 0;
  }
  return e;
}

}  // namespace xpass::sim
