#include "sim/fault_plan.hpp"

#include <cassert>

namespace xpass::sim {

void FaultPlan::at(Time when, std::string label,
                   std::function<void()> action) {
  assert(!armed_ && "FaultPlan: at() after arm()");
  events_.push_back(Event{when, std::move(label), std::move(action), 0});
}

void FaultPlan::window(Time from, Time to, std::string label,
                       std::function<void()> enter,
                       std::function<void()> exit) {
  assert(!armed_ && "FaultPlan: window() after arm()");
  assert(to > from && "FaultPlan: window closes before it opens");
  events_.push_back(Event{from, label + ":begin", std::move(enter), +1});
  if (to != Time::max()) {
    events_.push_back(Event{to, label + ":end", std::move(exit), -1});
  }
}

void FaultPlan::arm(Simulator& sim) {
  assert(!armed_ && "FaultPlan: arm() twice");
  armed_ = true;
  // Events hold stable addresses from here on (no additions after arm).
  for (Event& e : events_) {
    Event* ev = &e;
    sim.at(ev->when, [this, ev] {
      active_windows_ += ev->window_delta;
      ++fired_;
      if (ev->action) ev->action();
    });
  }
}

}  // namespace xpass::sim
