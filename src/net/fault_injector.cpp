#include "net/fault_injector.hpp"

namespace xpass::net {

// Every up/down transition reconverges the control plane: a switch's local
// up-check can only exclude its own dead ports from ECMP, but a remote
// failure (e.g. an aggr--edge link seen from another pod) would otherwise
// keep attracting traffic into a blackhole. recompute_routes() prunes dead
// links network-wide, which also keeps credit/data paths symmetric.
bool FaultInjector::fail_link(Node& a, Node& b, LinkFailMode mode) {
  Port* pa = topo_.port_between(a, b);
  if (pa == nullptr) return false;
  pa->fail(mode);
  pa->peer()->fail(mode);
  topo_.recompute_routes();
  return true;
}

bool FaultInjector::recover_link(Node& a, Node& b) {
  Port* pa = topo_.port_between(a, b);
  if (pa == nullptr) return false;
  pa->recover();
  pa->peer()->recover();
  topo_.recompute_routes();
  return true;
}

bool FaultInjector::set_link_error(Node& a, Node& b,
                                   const LinkErrorConfig& cfg,
                                   uint64_t seed) {
  Port* pa = topo_.port_between(a, b);
  if (pa == nullptr) return false;
  pa->set_error_model(cfg, seed);
  return true;
}

bool FaultInjector::set_link_error_bidir(Node& a, Node& b,
                                         const LinkErrorConfig& cfg,
                                         uint64_t seed) {
  Port* pa = topo_.port_between(a, b);
  if (pa == nullptr) return false;
  // Distinct streams per direction: the reverse wire's bit errors are
  // physically independent of the forward wire's.
  pa->set_error_model(cfg, seed);
  pa->peer()->set_error_model(cfg, seed ^ 0x9e3779b97f4a7c15ULL);
  return true;
}

bool FaultInjector::clear_link_error(Node& a, Node& b) {
  Port* pa = topo_.port_between(a, b);
  if (pa == nullptr) return false;
  pa->clear_error_model();
  pa->peer()->clear_error_model();
  return true;
}

void FaultInjector::schedule_flap(Node& a, Node& b, sim::Time down,
                                  sim::Time up, LinkFailMode mode) {
  plan_.window(
      down, up, "flap " + a.name() + "--" + b.name(),
      [this, &a, &b, mode] { fail_link(a, b, mode); },
      [this, &a, &b] { recover_link(a, b); });
}

void FaultInjector::schedule_death(Node& a, Node& b, sim::Time at,
                                   LinkFailMode mode) {
  plan_.window(at, sim::Time::max(), "kill " + a.name() + "--" + b.name(),
               [this, &a, &b, mode] { fail_link(a, b, mode); }, nullptr);
}

void FaultInjector::schedule_error_window(Node& a, Node& b,
                                          const LinkErrorConfig& cfg,
                                          sim::Time from, sim::Time to) {
  const uint64_t seed = plan_.rng().bits();
  plan_.window(
      from, to, "errors " + a.name() + "--" + b.name(),
      [this, &a, &b, cfg, seed] { set_link_error_bidir(a, b, cfg, seed); },
      [this, &a, &b] { clear_link_error(a, b); });
}

FaultStats FaultInjector::totals() const {
  FaultStats t;
  for (const Topology::LinkRec& l : topo_.links()) {
    for (const Port* p : {l.pa, l.pb}) {
      const FaultStats& s = p->fault_stats();
      t.injected_data_drops += s.injected_data_drops;
      t.injected_credit_drops += s.injected_credit_drops;
      t.corrupted_data += s.corrupted_data;
      t.corrupted_credits += s.corrupted_credits;
      t.cut_data += s.cut_data;
      t.cut_credits += s.cut_credits;
      t.flushed_data += s.flushed_data;
      t.flushed_credits += s.flushed_credits;
      t.failures += s.failures;
      t.recoveries += s.recoveries;
    }
  }
  return t;
}

}  // namespace xpass::net
