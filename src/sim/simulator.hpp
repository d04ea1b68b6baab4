// Simulator: owns the event queue and PRNG; passed by reference to every
// component. Not copyable — all components hold a Simulator&.
//
// An optional RunBudget (set_budget) turns run()/run_until() into budgeted
// step loops: the run stops cleanly — aborted() flips, now() freezes at the
// last fired event — when any limit trips. Without a budget the unbudgeted
// EventQueue fast paths are used, untouched.
#pragma once

#include <cstdint>

#include "sim/event_queue.hpp"
#include "sim/random.hpp"
#include "sim/run_budget.hpp"
#include "sim/time.hpp"

namespace xpass::sim {

class Simulator {
 public:
  explicit Simulator(uint64_t seed = 1) : rng_(seed) {}
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return events_.now(); }
  TimerId at(Time t, Callback cb) { return events_.schedule(t, std::move(cb)); }
  TimerId after(Time dt, Callback cb) {
    return events_.schedule(now() + dt, std::move(cb));
  }
  void cancel(TimerId id) { events_.cancel(id); }

  void run_until(Time t) {
    if (!budget_armed_) {
      events_.run_until(t);
      return;
    }
    run_budgeted(t, /*bounded=*/true);
  }
  void run() {
    if (!budget_armed_) {
      events_.run();
      return;
    }
    run_budgeted(Time::max(), /*bounded=*/false);
  }

  // Arms `b` from the current simulator state: event and sim-time limits
  // count from here, and the wall clock starts now. A budget with no limits
  // set disarms. Re-arming clears a previous abort.
  void set_budget(const RunBudget& b);

  // True once a budgeted run tripped a limit. Further run()/run_until()
  // calls return immediately without firing events or advancing now(), so
  // stepped harness loops must check aborted() to terminate.
  bool aborted() const { return abort_ != AbortReason::kNone; }
  AbortReason abort_reason() const { return abort_; }
  const RunBudget& budget() const { return budget_; }
  // Events fired since the budget was armed.
  uint64_t budget_events_fired() const { return events_.fired() - armed_fired_; }

  // Exact count of live (scheduled, not yet fired or cancelled) events.
  size_t pending() const { return events_.pending(); }

  EventQueue& events() { return events_; }
  const EventQueue& events() const { return events_; }
  Rng& rng() { return rng_; }

 private:
  // How many events fire between wall-clock reads (a syscall per event would
  // dominate the hot path; 4096 bounds the overshoot to well under a ms of
  // simulated work).
  static constexpr uint64_t kWallCheckPeriod = 4096;

  void run_budgeted(Time t_end, bool bounded);

  EventQueue events_;
  Rng rng_;
  RunBudget budget_;
  bool budget_armed_ = false;
  AbortReason abort_ = AbortReason::kNone;
  Time armed_at_;            // sim time when the budget was armed
  uint64_t armed_fired_ = 0; // events_.fired() when the budget was armed
  int64_t armed_wall_ns_ = 0;  // steady_clock anchor (ns since epoch)
};

}  // namespace xpass::sim
