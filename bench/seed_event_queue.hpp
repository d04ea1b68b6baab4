// Seed event queue: the pre-rebuild event core (std::function callbacks,
// std::priority_queue on (t, seq), tombstone-set cancel), kept verbatim in
// behavior as a reference model outside src/.
//
// Two users share it. bench_core times sim::EventQueue against it in-binary
// under identical compiler flags, so the speedup in BENCH_core.json is not
// measured against a stale recorded number. tests/sim/timing_wheel_test.cpp
// replays randomized workloads through both queues: the (t, seq) fire order
// of a plain heap is the contract the timing wheel must reproduce exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <unordered_set>
#include <vector>

#include "sim/time.hpp"

namespace xpass::bench {

class SeedEventQueue {
 public:
  using Time = sim::Time;

  struct TimerId {
    uint64_t id = 0;
    bool valid() const { return id != 0; }
  };

  TimerId schedule(Time t, std::function<void()> cb) {
    const uint64_t seq = next_seq_++;
    heap_.push(Entry{t, seq, std::move(cb)});
    ++live_count_;
    return TimerId{seq};
  }

  void cancel(TimerId id) {
    if (!id.valid()) return;
    cancelled_.insert(id.id);  // may have already fired: leaks forever
  }

  Time now() const { return now_; }

  bool step() {
    while (!heap_.empty()) {
      Entry e = std::move(const_cast<Entry&>(heap_.top()));
      heap_.pop();
      auto it = cancelled_.find(e.seq);
      if (it != cancelled_.end()) {
        cancelled_.erase(it);
        if (live_count_ > 0) --live_count_;
        continue;
      }
      now_ = e.t;
      if (live_count_ > 0) --live_count_;
      e.cb();
      return true;
    }
    return false;
  }

  void run() {
    while (step()) {
    }
  }

 private:
  struct Entry {
    Time t;
    uint64_t seq;
    std::function<void()> cb;
    bool operator>(const Entry& o) const {
      if (t != o.t) return t > o.t;
      return seq > o.seq;
    }
  };

  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> heap_;
  std::unordered_set<uint64_t> cancelled_;
  Time now_;
  uint64_t next_seq_ = 1;
  size_t live_count_ = 0;
};

}  // namespace xpass::bench
