// FaultInjector: binds a sim::FaultPlan to a concrete Topology.
//
// The plan layer is pure scheduling (when does what labeled action fire);
// this layer knows what the actions *are*: taking both directions of a link
// down, killing a single switch port (forcing the §3.1 symmetric ECMP
// exclusion on the survivors), attaching per-link error models, and rolling
// all of it back on recovery. Convenience schedulers compose the two for
// the common scenarios — a link flap, a lossy window, a permanent death.
#pragma once

#include <cstdint>

#include "net/topology.hpp"
#include "sim/fault_plan.hpp"

namespace xpass::net {

class FaultInjector {
 public:
  FaultInjector(Topology& topo, sim::FaultPlan& plan)
      : topo_(topo), plan_(plan) {}
  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Immediate actions (usable directly or from plan callbacks) ----------

  // Takes BOTH directions of the a--b link down. Returns false if the nodes
  // are not adjacent.
  bool fail_link(Node& a, Node& b, LinkFailMode mode = LinkFailMode::kDrop);
  bool recover_link(Node& a, Node& b);

  // Attaches an error model to the a->b direction (or both). Each direction
  // gets an independent Rng stream derived from `seed`.
  bool set_link_error(Node& a, Node& b, const LinkErrorConfig& cfg,
                      uint64_t seed);
  bool set_link_error_bidir(Node& a, Node& b, const LinkErrorConfig& cfg,
                            uint64_t seed);
  bool clear_link_error(Node& a, Node& b);

  // Plan-driven schedules ----------------------------------------------

  // Link goes down at `down` and comes back at `up` (both directions).
  void schedule_flap(Node& a, Node& b, sim::Time down, sim::Time up,
                     LinkFailMode mode = LinkFailMode::kDrop);

  // Link dies at `at` and never recovers.
  void schedule_death(Node& a, Node& b, sim::Time at,
                      LinkFailMode mode = LinkFailMode::kDrop);

  // Error model active on both directions during [from, to); cleared after.
  // to == Time::max() leaves it on for the rest of the run.
  void schedule_error_window(Node& a, Node& b, const LinkErrorConfig& cfg,
                             sim::Time from, sim::Time to);

  // Aggregates -----------------------------------------------------------

  // Sum of every port's FaultStats across the topology.
  FaultStats totals() const;

 private:
  Topology& topo_;
  sim::FaultPlan& plan_;
};

}  // namespace xpass::net
