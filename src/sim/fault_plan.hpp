// FaultPlan: a deterministic, seeded schedule of timed fault events.
//
// A plan is built offline from absolute times and opaque actions, then armed
// on a Simulator, which schedules every event through the ordinary event
// queue — faults are just events, so a run remains bit-reproducible for a
// given (traffic seed, plan seed) pair. The plan carries its own PRNG (it
// seeds the per-link error models) so fault randomness never perturbs the
// traffic seed's stream.
//
// Windowed faults (link down .. up) maintain an active-window refcount that
// the InvariantChecker uses to gate "healthy network only" assertions such
// as the §3.1 queue-occupancy bound.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "sim/random.hpp"
#include "sim/simulator.hpp"

namespace xpass::sim {

class FaultPlan {
 public:
  explicit FaultPlan(uint64_t seed = 0xfa17ull) : rng_(seed) {}
  FaultPlan(const FaultPlan&) = delete;
  FaultPlan& operator=(const FaultPlan&) = delete;

  // One-shot action at absolute time `when`; does not open a fault window.
  void at(Time when, std::string label, std::function<void()> action);

  // Windowed fault: `enter` runs at `from` (opening the window), `exit` at
  // `to` (closing it). `to == Time::max()` makes the fault permanent: `exit`
  // is discarded and the window never closes.
  void window(Time from, Time to, std::string label,
              std::function<void()> enter, std::function<void()> exit);

  // Schedules every event on `sim`. Call once, after all at()/window()
  // additions (adding to an armed plan is a programming error).
  void arm(Simulator& sim);

  size_t size() const { return events_.size(); }
  bool armed() const { return armed_; }
  uint64_t fired() const { return fired_; }
  // Number of currently open fault windows.
  int active_windows() const { return active_windows_; }
  bool any_fault_active() const { return active_windows_ > 0; }
  // True once any fault event has fired; invariant baselines reset on this.
  bool any_fault_fired() const { return fired_ > 0; }

  Rng& rng() { return rng_; }

 private:
  struct Event {
    Time when;
    std::string label;
    std::function<void()> action;
    int window_delta = 0;  // +1 opens a window, -1 closes it, 0 instant
  };

  Rng rng_;
  std::vector<Event> events_;
  bool armed_ = false;
  int active_windows_ = 0;
  uint64_t fired_ = 0;
};

}  // namespace xpass::sim
