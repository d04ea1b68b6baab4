#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace xpass::sim {

namespace {
constexpr size_t kArity = 4;
}  // namespace

uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNil) {
    const uint32_t idx = free_head_;
    free_head_ = slots_[idx].link;
    return idx;
  }
  // Pool growth only happens when every existing slot is pending, so this
  // check is off the per-event path.
  if (slots_.size() > kSlotMask) {
    throw std::length_error(
        "EventQueue: more than 2^20 concurrently pending events");
  }
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(uint32_t idx) {
  Slot& s = slots_[idx];
  s.cb.reset();
  s.key = 0;  // the entry, wherever it sits, is dead from here on
  s.link = free_head_;
  free_head_ = idx;
}

TimerId EventQueue::schedule(Time t, Callback cb) {
  if (t < now_) {
    // The documented contract is t >= now(). A past-time event would fire
    // out of order relative to events already fired at now() and break the
    // FIFO-determinism contract, so it is clamped to now() — it still fires
    // after everything already scheduled at now(), in scheduling order.
    // Under the sanitize preset the offending call site is a bug to fix,
    // not to paper over: fail loudly at the source.
#ifdef XPASS_SANITIZE
    std::fprintf(stderr,
                 "EventQueue::schedule: past-time schedule (t=%lld ps < "
                 "now=%lld ps)\n",
                 static_cast<long long>(t.picos()),
                 static_cast<long long>(now_.picos()));
    std::abort();
#else
    t = now_;
#endif
  }
  const uint32_t idx = acquire_slot();
  const uint64_t key = (next_seq_++ << kSlotBits) | idx;
  Slot& s = slots_[idx];
  s.cb = std::move(cb);
  s.key = key;
  s.link = kNil;
  // Deferred routing: the entry sits in the unsorted staging buffer until
  // the queue is next stepped, and only then picks wheel vs heap. An event
  // cancelled before that (teardown, RTO reschedule) is dropped at flush
  // without ever paying a wheel insert or a heap sift. Routing at flush
  // time is trace-identical to routing at schedule time: now() and the
  // wheel's tick cursor advance only when an event fires, and every staged
  // entry is flushed before the next fire, so the wheel sees the same
  // acceptance window either way — and fire order is the (t, seq) minimum
  // across both structures regardless of where an entry landed.
  staging_.push_back(Entry{t, key});
  ++live_count_;
  return TimerId{key};
}

void EventQueue::cancel(TimerId id) {
  const uint32_t idx = slot_of(id.key);
  if (!id.valid() || idx >= slots_.size() || slots_[idx].key != id.key) {
    return;  // fired, cancelled, or never scheduled
  }
  // Reclaim everything now. A bucketed L1/L2 node is unlinked; any other
  // entry stays where it is and is dropped when it surfaces, because its
  // key no longer matches the (freed or reused) slot.
  const uint32_t node = slots_[idx].link;
  if (node != kNil) wheel_.remove(node, id.key);
  release_slot(idx);
  --live_count_;
  ++cancelled_;
}

void EventQueue::fire_top() {
  // Pop-push fusion: firing leaves a hole at the root instead of eagerly
  // re-heapifying. The fired callback almost always schedules a successor
  // event (the simulation's "hold" pattern), and the successor is usually
  // near-future — the next flush drops it straight into the hole, where its
  // sift_down terminates after a level or two. The eager alternative pays a
  // full-depth sift_down (moving the far-future *last* element down from
  // the root) plus a full-depth sift_up for the new event, every event.
  const Entry e = heap_[0];
  hole_ = true;
  Slot& s = slots_[e.slot()];
  Callback cb = std::move(s.cb);
  release_slot(e.slot());
  now_ = e.t;
  --live_count_;
  ++fired_;
  // No references into slots_/heap_ may be held across the call: the
  // callback can schedule, growing either vector.
  cb();
}

const TimingWheel::Entry* EventQueue::next_wheel() {
  const TimingWheel::Entry* w;
  while ((w = wheel_.peek()) != nullptr && !live(w->key)) {
    wheel_.pop();  // cancelled after it left a bucket (or while in L0)
  }
  return w;
}

void EventQueue::fire_wheel() {
  const TimingWheel::Entry e = wheel_.pop();
  const uint32_t idx = slot_of(e.key);
  Slot& s = slots_[idx];
  Callback cb = std::move(s.cb);
  release_slot(idx);
  now_ = e.t;
  --live_count_;
  ++fired_;
  // No references into slots_ may be held across the call: the callback can
  // schedule, growing the vector.
  cb();
}

bool EventQueue::step() {
  if (!staging_.empty()) flush_staging();
  skim_cancelled();
  const TimingWheel::Entry* w = next_wheel();
  const bool heap_has = !heap_.empty();
  if (!w && !heap_has) return false;
  if (!w || (heap_has && earlier(heap_[0], Entry{w->t, w->key}))) {
    fire_top();
  } else {
    fire_wheel();
  }
  return true;
}

bool EventQueue::step_until(Time t_end) {
  if (!staging_.empty()) flush_staging();
  skim_cancelled();
  const TimingWheel::Entry* w = next_wheel();
  const bool heap_has = !heap_.empty();
  if (!w && !heap_has) return false;
  const bool use_heap =
      !w || (heap_has && earlier(heap_[0], Entry{w->t, w->key}));
  if ((use_heap ? heap_[0].t : w->t) > t_end) return false;
  if (use_heap) {
    fire_top();
  } else {
    fire_wheel();
  }
  return true;
}

void EventQueue::flush_staging() {
  for (const Entry& e : staging_) {
    // Cancelled while staged: drop without touching wheel or heap.
    if (!live(e.key)) continue;
    uint32_t& node = slots_[e.slot()].link;
    bool wheeled = wheel_.try_schedule(e.t, e.key, &node);
    if (!wheeled && wheel_.empty()) {
      // The wheel idled through a heap-only stretch and its span window
      // fell behind now(); re-anchor it and retry.
      wheel_.sync(now_);
      wheeled = wheel_.try_schedule(e.t, e.key, &node);
    }
    if (wheeled) {
      ++wheel_scheduled_;
      continue;
    }
    ++heap_scheduled_;
    if (hole_) {
      // Fill the fired event's root hole directly (see fire_top).
      hole_ = false;
      heap_[0] = e;
      sift_down(0);
    } else {
      heap_push(e);
    }
  }
  staging_.clear();
}

void EventQueue::fill_hole() {
  // No staged event claimed the root hole: close it the eager way, by
  // sifting the last element down from the root.
  if (!hole_) return;
  hole_ = false;
  const Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    sift_down(0);
  }
}

void EventQueue::skim_cancelled() {
  fill_hole();
  while (!heap_.empty() && !live(heap_[0].key)) heap_pop();
}

void EventQueue::run_until(Time t_end) {
  // One flush + one skim + one pop per fired event; step()'s re-checks are
  // folded in rather than paid twice per iteration.
  for (;;) {
    if (!staging_.empty()) flush_staging();
    skim_cancelled();
    const TimingWheel::Entry* w = next_wheel();
    const bool heap_has = !heap_.empty();
    if (!w && !heap_has) break;
    const bool use_heap =
        !w || (heap_has && earlier(heap_[0], Entry{w->t, w->key}));
    if ((use_heap ? heap_[0].t : w->t) > t_end) break;
    if (use_heap) {
      fire_top();
    } else {
      fire_wheel();
    }
  }
  if (now_ < t_end) now_ = t_end;
}

void EventQueue::run() {
  while (step()) {
  }
}

void EventQueue::heap_push(Entry e) {
  heap_.push_back(e);
  sift_up(heap_.size() - 1);
}

EventQueue::Entry EventQueue::heap_pop() {
  const Entry top = heap_[0];
  const Entry last = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) {
    heap_[0] = last;
    sift_down(0);
  }
  return top;
}

void EventQueue::sift_up(size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (!earlier(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
}

void EventQueue::sift_down(size_t i) {
  const size_t n = heap_.size();
  const Entry e = heap_[i];
  for (;;) {
    const size_t first = i * kArity + 1;
    if (first >= n) break;
    size_t best = first;
    const size_t lim = std::min(first + kArity, n);
    for (size_t c = first + 1; c < lim; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], e)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = e;
}

}  // namespace xpass::sim
