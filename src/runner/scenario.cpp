#include "runner/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

#include "core/credit_telemetry.hpp"
#include "exec/sweep_runner.hpp"
#include "net/fault_injector.hpp"
#include "net/topology_builders.hpp"
#include "runner/flow_driver.hpp"
#include "sim/fault_plan.hpp"
#include "sim/invariants.hpp"
#include "stats/fairness.hpp"
#include "transport/credit_sched.hpp"
#include "workload/generators.hpp"

namespace xpass::runner {

namespace {

// The concrete network a TopologySpec resolved to: the host pools the
// traffic generators draw from, the canonical observation port, and the
// topology-defined flow list for kChain traffic.
struct Built {
  std::vector<net::Host*> hosts;  // senders / the poisson + shuffle pool
  std::vector<net::Host*> peers;  // pairwise receivers (dumbbell only)
  std::vector<net::Port*> tor_uplinks;  // Clos only: the load-defining links
  net::Port* bottleneck = nullptr;
  std::vector<std::pair<net::Host*, net::Host*>> chain;
};

Built build_network(const ScenarioSpec& spec, net::Topology& topo,
                    double fabric_rate_bps, sim::Time fabric_prop) {
  const TopologySpec& ts = spec.topology;
  const Protocol proto = spec.protocol;
  net::LinkConfig host_cfg =
      protocol_link_config(proto, ts.host_rate_bps, ts.host_prop);
  net::LinkConfig fabric_cfg =
      protocol_link_config(proto, fabric_rate_bps, fabric_prop);
  // Coexistence: a kDctcp group needs marking on the shared queues even
  // when the primary protocol's fabric has none.
  bool want_ecn = false;
  for (const FlowGroupSpec& g : spec.flow_groups) {
    want_ecn = want_ecn || g.protocol == Protocol::kDctcp;
  }
  const double rates[] = {ts.host_rate_bps, fabric_rate_bps};
  size_t i = 0;
  for (net::LinkConfig* cfg : {&host_cfg, &fabric_cfg}) {
    if (ts.credit_queue_pkts) cfg->credit_queue_pkts = *ts.credit_queue_pkts;
    if (ts.host_credit_shaper_noise) {
      cfg->host_credit_shaper_noise = *ts.host_credit_shaper_noise;
    }
    if (ts.link_jitter > sim::Time::zero()) {
      cfg->prop_jitter = ts.link_jitter;
    }
    if (want_ecn && cfg->data_queue.ecn_threshold_bytes == 0) {
      cfg->data_queue.ecn_threshold_bytes = dctcp_k_bytes(rates[i]);
    }
    ++i;
  }

  Built b;
  switch (ts.kind) {
    case TopologyKind::kDumbbell: {
      auto d = net::build_dumbbell(topo, ts.scale, host_cfg, fabric_cfg);
      b.hosts = d.senders;
      b.peers = d.receivers;
      b.bottleneck = d.bottleneck;
      break;
    }
    case TopologyKind::kStar: {
      auto s = net::build_star(topo, ts.scale, host_cfg);
      b.hosts = s.hosts;
      b.bottleneck = b.hosts[0]->nic().peer();
      break;
    }
    case TopologyKind::kFatTree: {
      auto ft = net::build_fat_tree(topo, ts.fat_tree_k, host_cfg, fabric_cfg);
      b.hosts = ft.hosts;
      b.bottleneck = b.hosts[0]->nic().peer();
      break;
    }
    case TopologyKind::kClos: {
      auto cl = net::build_clos(topo, ts.clos.n_core, ts.clos.pods,
                                ts.clos.aggr_per_pod, ts.clos.tor_per_pod,
                                ts.clos.hosts_per_tor, host_cfg, fabric_cfg);
      b.hosts = cl.hosts;
      b.tor_uplinks = cl.tor_uplinks;
      break;
    }
    case TopologyKind::kParkingLot: {
      auto p = net::build_parking_lot(topo, ts.scale, host_cfg, fabric_cfg);
      b.hosts = {p.long_src};
      b.bottleneck = p.data_links[0];
      b.chain.emplace_back(p.long_src, p.long_dst);
      for (size_t i = 0; i < p.cross_srcs.size(); ++i) {
        b.chain.emplace_back(p.cross_srcs[i], p.cross_dsts[i]);
      }
      break;
    }
    case TopologyKind::kMultiBottleneck: {
      auto m = net::build_multi_bottleneck(topo, ts.scale, host_cfg,
                                           fabric_cfg);
      b.hosts = {m.flow0_src};
      b.bottleneck = m.link1_data;
      b.chain.emplace_back(m.flow0_src, m.flow0_dst);
      for (size_t i = 0; i < m.srcs.size(); ++i) {
        b.chain.emplace_back(m.srcs[i], m.dsts[i]);
      }
      break;
    }
  }

  if (ts.host_delay != HostDelay::kNone) {
    const net::HostDelayModel model = ts.host_delay == HostDelay::kTestbed
                                          ? net::HostDelayModel::testbed()
                                          : net::HostDelayModel::hardware();
    for (net::Host* h : topo.hosts()) h->set_delay_model(model);
  }
  if (ts.packet_spraying) {
    for (net::Switch* sw : topo.switches()) sw->set_packet_spraying(true);
  }
  return b;
}

// Adds `tr`'s flows. With `group_t` null this is the classic single-protocol
// path (driver.add, primary transport) — its RNG draw order is golden-pinned.
// With `group_t` set, flows are created through that group's transport and
// tagged with `group` for per-group result extraction.
void add_traffic(const ScenarioSpec& spec, const TrafficSpec& tr,
                 const Built& b, sim::Simulator& sim, FlowDriver& driver,
                 double fabric_rate_bps, transport::Transport* group_t,
                 size_t group) {
  const auto add_one = [&](const transport::FlowSpec& s) {
    if (group_t != nullptr) {
      driver.add_grouped(s, *group_t, group);
    } else {
      driver.add(s);
    }
  };
  const auto add_many = [&](const std::vector<transport::FlowSpec>& specs) {
    for (const auto& s : specs) add_one(s);
  };
  switch (tr.kind) {
    case TrafficKind::kPairwise: {
      for (size_t i = 0; i < tr.flows; ++i) {
        transport::FlowSpec s;
        s.id = tr.flow_id_salt + static_cast<uint32_t>(i + 1);
        s.src = b.hosts[i % b.hosts.size()];
        s.dst = b.peers.empty()
                    ? b.hosts[(i + 1 + b.hosts.size() / 2) % b.hosts.size()]
                    : b.peers[i % b.peers.size()];
        if (s.dst == s.src) s.dst = b.hosts[(i + 1) % b.hosts.size()];
        s.size_bytes = tr.bytes;
        s.start_time = tr.start_offset + tr.start_step * static_cast<double>(i);
        // One RNG draw per flow, in flow order, only when spreading — the
        // bench goldens pin the stream position.
        if (tr.start_spread_sec > 0) {
          s.start_time +=
              sim::Time::seconds(sim.rng().uniform(0.0, tr.start_spread_sec));
        }
        add_one(s);
      }
      break;
    }
    case TrafficKind::kIncast: {
      std::vector<net::Host*> workers(b.hosts.begin() + 1, b.hosts.end());
      add_many(workload::incast_flows(workers, b.hosts[0], tr.bytes,
                                      tr.flows, sim::Time::zero(),
                                      tr.flow_id_salt + 1));
      break;
    }
    case TrafficKind::kShuffle: {
      add_many(workload::shuffle_flows(b.hosts, tr.tasks_per_host,
                                       tr.bytes, sim::Time::zero(),
                                       tr.flow_id_salt + 1));
      break;
    }
    case TrafficKind::kPoisson: {
      auto dist = workload::FlowSizeDist::make(tr.workload);
      std::vector<net::Host*> pool = b.hosts;
      pool.insert(pool.end(), b.peers.begin(), b.peers.end());
      // Load is defined on the ToR up-links for the Clos fabric (§6.3);
      // generic topologies fall back to the CLI's aggregate-host-rate/3
      // heuristic.
      const double capacity =
          tr.capacity_bps
              ? *tr.capacity_bps
              : !b.tor_uplinks.empty()
                    ? static_cast<double>(b.tor_uplinks.size()) *
                          fabric_rate_bps
                    : static_cast<double>(pool.size()) *
                          spec.topology.host_rate_bps / 3.0;
      const double lambda =
          workload::lambda_for_load(tr.load, capacity, dist.mean());
      add_many(workload::poisson_flows(sim.rng(), pool, dist, lambda,
                                       tr.flows, sim::Time::zero(),
                                       tr.flow_id_salt + 1));
      break;
    }
    case TrafficKind::kChain: {
      uint32_t id = tr.flow_id_salt + 1;
      for (const auto& [src, dst] : b.chain) {
        transport::FlowSpec s;
        s.id = id++;
        s.src = src;
        s.dst = dst;
        s.size_bytes = tr.bytes;
        add_one(s);
      }
      break;
    }
    case TrafficKind::kOnOff: {
      // Media-style on/off sources: each source emits one refresh burst per
      // cycle, phase-shifted by a per-source U(0, period) draw (one draw
      // per source, in source order). The cycle schedule covers the stop
      // horizon; bursts that would start past it are not scheduled.
      const double period = tr.on_period_sec;
      const sim::Time horizon = spec.stop.kind == StopKind::kWindow
                                    ? spec.stop.warmup + spec.stop.window
                                    : spec.stop.horizon;
      size_t cycles =
          static_cast<size_t>(horizon.to_sec() / period) + 1;
      cycles = std::min<size_t>(cycles, 1024);  // runaway-spec backstop
      const uint64_t burst =
          tr.bytes != transport::kLongRunning
              ? tr.bytes
              : std::max<uint64_t>(
                    net::kMssBytes,
                    static_cast<uint64_t>(tr.on_duty * period *
                                          spec.topology.host_rate_bps / 8.0));
      uint32_t id = tr.flow_id_salt + 1;
      for (size_t i = 0; i < tr.flows; ++i) {
        net::Host* src = b.hosts[i % b.hosts.size()];
        net::Host* dst =
            b.peers.empty()
                ? b.hosts[(i + 1 + b.hosts.size() / 2) % b.hosts.size()]
                : b.peers[i % b.peers.size()];
        if (dst == src) dst = b.hosts[(i + 1) % b.hosts.size()];
        const double phase = sim.rng().uniform(0.0, period);
        for (size_t k = 0; k < cycles; ++k) {
          const sim::Time start =
              sim::Time::seconds(phase + static_cast<double>(k) * period);
          if (start >= horizon) break;
          transport::FlowSpec s;
          s.id = id++;
          s.src = src;
          s.dst = dst;
          s.size_bytes = burst;
          s.start_time = start;
          add_one(s);
        }
      }
      break;
    }
  }
}

void add_traffic(const ScenarioSpec& spec, const Built& b,
                 sim::Simulator& sim, FlowDriver& driver,
                 double fabric_rate_bps) {
  add_traffic(spec, spec.traffic, b, sim, driver, fabric_rate_bps,
              /*group_t=*/nullptr, /*group=*/0);
}

bool is_expresspass(Protocol p) {
  return p == Protocol::kExpressPass || p == Protocol::kExpressPassNaive;
}

// Mixed-fabric admission: a group either shares the primary protocol (and
// its transport) or must be one of the drop-tail-compatible reactive stacks
// that can run on whatever fabric the primary configured. Everything else
// needs link machinery (credit shapers, PFC, per-flow pause, a central
// oracle) the shared fabric does not provide per-group.
void validate_flow_groups(const ScenarioSpec& spec) {
  for (const FlowGroupSpec& g : spec.flow_groups) {
    if (g.share <= 0) {
      throw std::invalid_argument(
          "ScenarioSpec.flow_groups: share must be > 0");
    }
    if (g.protocol == spec.protocol) continue;
    if (is_expresspass(g.protocol) && is_expresspass(spec.protocol)) {
      continue;  // naive/feedback variants share the credit fabric
    }
    const bool groupable = g.protocol == Protocol::kDctcp ||
                           g.protocol == Protocol::kRcp ||
                           g.protocol == Protocol::kDx ||
                           g.protocol == Protocol::kCubic ||
                           g.protocol == Protocol::kTimely ||
                           g.protocol == Protocol::kBbr;
    if (!groupable) {
      throw std::invalid_argument(
          std::string("ScenarioSpec.flow_groups: protocol ") +
          std::string(protocol_name(g.protocol)) +
          " cannot join a mixed fabric (it needs link machinery the primary "
          "protocol's fabric does not provide)");
    }
  }
}

// Numbers no network can have. A non-positive or non-finite line rate
// never drains a queue (the run crawls to its horizon or never returns), a
// probability outside [0, 1] silently means "always" or "never", and a
// negative time or load would run as if it were something else (a run of
// 0 ps, a fault that never fires, a negative arrival rate).
// The member is named `where` + `member`; the name is only built to throw.
[[noreturn]] void reject(std::string_view where, const char* member,
                         const std::string& value, const char* rule) {
  throw std::invalid_argument("ScenarioSpec." + std::string(where) + member +
                              " = " + value + ": must be " + rule);
}

void check_number(std::string_view where, const char* member, double v,
                  bool ok, const char* rule) {
  if (ok) return;
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  reject(where, member, buf, rule);
}

void check_not_negative(std::string_view where, const char* member,
                        sim::Time t) {
  if (t < sim::Time::zero()) reject(where, member, t.str(), ">= 0");
}

void validate_traffic(std::string_view where, const TrafficSpec& tr) {
  const double spread = tr.start_spread_sec;
  check_number(where, "start_spread_sec", spread,
               std::isfinite(spread) && spread >= 0, "finite and >= 0");
  check_not_negative(where, "start_offset", tr.start_offset);
  check_not_negative(where, "start_step", tr.start_step);
  if (tr.kind == TrafficKind::kPoisson) {
    check_number(where, "load", tr.load,
                 std::isfinite(tr.load) && tr.load > 0, "finite and > 0");
    if (tr.capacity_bps) {
      const double c = *tr.capacity_bps;
      check_number(where, "capacity_bps", c, std::isfinite(c) && c > 0,
                   "finite and > 0");
    }
  }
  if (tr.kind == TrafficKind::kOnOff) {
    const double period = tr.on_period_sec;
    check_number(where, "on_period_sec", period,
                 std::isfinite(period) && period > 0, "finite and > 0");
    check_number(where, "on_duty", tr.on_duty,
                 tr.on_duty >= 0.01 && tr.on_duty <= 1, "in [0.01, 1]");
  }
}

void validate_numbers(const ScenarioSpec& spec) {
  const TopologySpec& ts = spec.topology;
  check_number("topology.", "host_rate_bps", ts.host_rate_bps,
               std::isfinite(ts.host_rate_bps) && ts.host_rate_bps > 0,
               "finite and > 0");
  check_number("topology.", "fabric_rate_bps", ts.fabric_rate_bps,
               std::isfinite(ts.fabric_rate_bps) && ts.fabric_rate_bps >= 0,
               "finite and >= 0 (0 = host rate)");
  check_not_negative("topology.", "link_jitter", ts.link_jitter);
  validate_traffic("traffic.", spec.traffic);
  for (size_t g = 0; g < spec.flow_groups.size(); ++g) {
    validate_traffic("flow_groups[" + std::to_string(g) + "].traffic.",
                     spec.flow_groups[g].traffic);
  }
  check_not_negative("stop.", "horizon", spec.stop.horizon);
  check_not_negative("stop.", "warmup", spec.stop.warmup);
  check_not_negative("stop.", "window", spec.stop.window);
  check_not_negative("faults.", "flap_down", spec.faults.flap_down);
  check_not_negative("faults.", "flap_up", spec.faults.flap_up);
  check_not_negative("faults.", "kill_at", spec.faults.kill_at);
  const net::LinkErrorConfig& e = spec.faults.errors;
  const std::pair<const char*, double> probabilities[] = {
      {"data_drop", e.data_drop},
      {"credit_drop", e.credit_drop},
      {"data_corrupt", e.data_corrupt},
      {"credit_corrupt", e.credit_corrupt},
      {"ge_good_to_bad", e.ge_good_to_bad},
      {"ge_bad_to_good", e.ge_bad_to_good},
      {"ge_drop_good", e.ge_drop_good},
      {"ge_drop_bad", e.ge_drop_bad},
  };
  for (const auto& [name, p] : probabilities) {
    check_number("faults.errors.", name, p, p >= 0 && p <= 1, "in [0, 1]");
  }
}

// Per-group flow-id salt stride: keeps group id spaces disjoint while
// preserving the per-group flow-relabel invariant (shifting a group's salt
// relabels only that group).
constexpr uint32_t kGroupSaltStride = 1u << 20;

}  // namespace

ScenarioResult ScenarioEngine::run(const ScenarioSpec& spec,
                                   const RunOverrides& overrides) const {
  validate_numbers(spec);
  sim::Simulator sim(spec.seed);
  // Merge the spec's budget with caller-side enforcement: the override's
  // wall-clock leash tightens (never loosens) whatever the spec declares.
  {
    sim::RunBudget budget = spec.budget.value_or(sim::RunBudget{});
    if (overrides.wall_clock_ms > 0 && (budget.max_wall_ms <= 0 ||
                                        overrides.wall_clock_ms <
                                            budget.max_wall_ms)) {
      budget.max_wall_ms = overrides.wall_clock_ms;
    }
    if (budget.any()) sim.set_budget(budget);
  }
  net::Topology topo(sim);

  const TopologySpec& ts = spec.topology;
  const double fabric_rate =
      ts.fabric_rate_bps > 0 ? ts.fabric_rate_bps : ts.host_rate_bps;
  const sim::Time fabric_prop =
      ts.fabric_prop > sim::Time::zero() ? ts.fabric_prop : ts.host_prop;
  Built b = build_network(spec, topo, fabric_rate, fabric_prop);

  auto transport = make_transport(spec.protocol, sim, topo, spec.base_rtt,
                                  spec.xp ? &*spec.xp : nullptr);
  // Connections hold their transport's config by reference, so every
  // transport is declared before the driver that owns the connections.
  std::vector<std::unique_ptr<transport::Transport>> group_transports;
  FlowDriver driver(sim, *transport);
  if (spec.flow_groups.empty()) {
    add_traffic(spec, b, sim, driver, fabric_rate);
  } else {
    validate_flow_groups(spec);
    for (size_t g = 0; g < spec.flow_groups.size(); ++g) {
      const FlowGroupSpec& fg = spec.flow_groups[g];
      transport::Transport* t = transport.get();
      if (fg.protocol != spec.protocol) {
        group_transports.push_back(make_transport(
            fg.protocol, sim, topo, spec.base_rtt,
            is_expresspass(fg.protocol) && spec.xp ? &*spec.xp : nullptr));
        t = group_transports.back().get();
      }
      TrafficSpec tr = fg.traffic;
      tr.flow_id_salt += static_cast<uint32_t>(g) * kGroupSaltStride;
      add_traffic(spec, tr, b, sim, driver, fabric_rate, t, g);
    }
  }

  // Faults target the first switch--switch link, falling back to the first
  // link for single-switch topologies.
  sim::FaultPlan plan(spec.fault_seed);
  net::FaultInjector injector(topo, plan);
  const bool has_faults = spec.faults.any();
  if (has_faults) {
    const net::Topology::LinkRec* target = nullptr;
    for (const auto& l : topo.links()) {
      if (topo.node(l.a).kind() == net::Node::Kind::kSwitch &&
          topo.node(l.b).kind() == net::Node::Kind::kSwitch) {
        target = &l;
        break;
      }
    }
    if (target == nullptr && !topo.links().empty()) {
      target = &topo.links().front();
    }
    if (target != nullptr) {
      apply_fault_scenario(spec.faults, injector, topo.node(target->a),
                           topo.node(target->b));
      plan.arm(sim);
    }
  }

  sim::InvariantChecker checker(sim);
  if (spec.check_invariants) {
    NetInvariantOptions iopts;
    // Zero-data-loss holds only when *every* flow is credit-scheduled: one
    // reactive cross-traffic group probes the queues by filling them.
    bool all_xp = is_expresspass(spec.protocol);
    for (const FlowGroupSpec& g : spec.flow_groups) {
      all_xp = all_xp && is_expresspass(g.protocol);
    }
    iopts.expect_zero_data_loss = all_xp;
    register_network_invariants(checker, topo, driver,
                                has_faults ? &plan : nullptr, iopts);
    checker.start(sim::Time::us(100));
  }

  stats::Recorder rec;
  topo.register_telemetry(rec, spec.telemetry.per_port_queue_series);
  driver.register_telemetry(rec, spec.telemetry.flow_rate_series);
  if (is_expresspass(spec.protocol)) {
    core::register_credit_telemetry(rec, topo, driver.connections());
  }
  if (spec.telemetry.bottleneck_queue_series && b.bottleneck != nullptr) {
    net::Port* p = b.bottleneck;
    rec.series_gauge("queue.bottleneck.bytes", [p] {
      return static_cast<double>(p->data_queue().bytes());
    });
  }

  // Sampling steps run_until; the event stream a stepped run processes is
  // identical to one uninterrupted run, so sampling can never perturb a
  // golden output. An aborted sim makes run_until a no-op, so every stepped
  // loop must break on aborted() or it would spin to its horizon.
  const sim::Time interval = spec.telemetry.sample_interval;
  auto run_until = [&](sim::Time until) {
    if (interval > sim::Time::zero()) {
      sim::Time t = sim.now();
      while (t < until) {
        t = std::min(t + interval, until);
        sim.run_until(t);
        if (sim.aborted()) break;  // drop the partial sample point
        rec.sample_all(t.to_sec());
      }
    } else {
      sim.run_until(until);
    }
  };

  std::vector<std::pair<uint32_t, double>> rate_pairs;
  uint64_t tx_before = 0;
  bool completion_result = false;
  switch (spec.stop.kind) {
    case StopKind::kRunFor:
      run_until(spec.stop.horizon);
      break;
    case StopKind::kWindow:
      run_until(spec.stop.warmup);
      if (b.bottleneck != nullptr) tx_before = b.bottleneck->tx_data_bytes();
      driver.rates().snapshot_rates_ordered(spec.stop.warmup);  // reset
      run_until(spec.stop.warmup + spec.stop.window);
      rate_pairs = driver.rates().snapshot_rates_ordered(spec.stop.window);
      break;
    case StopKind::kCompletion:
      if (interval > sim::Time::zero()) {
        // run_to_completion's 1ms settle checks, at sample granularity.
        sim::Time t = sim.now();
        while (t < spec.stop.horizon && !sim.aborted() &&
               driver.completed() + driver.failed() < driver.scheduled()) {
          t = std::min(t + interval, spec.stop.horizon);
          sim.run_until(t);
          if (sim.aborted()) break;
          rec.sample_all(t.to_sec());
        }
        completion_result = driver.completed() == driver.scheduled();
      } else {
        completion_result = driver.run_to_completion(spec.stop.horizon);
      }
      break;
  }

  // Everything after the run loop: final sweeps, scalar extraction, recorder
  // mirroring, teardown.
  ScenarioResult res;
  res.name = spec.name;
  res.seed = spec.seed;

  if (spec.stop.kind != StopKind::kWindow) {
    rate_pairs = driver.rates().snapshot_rates_ordered(sim.now());
  }
  // A truncated run stops mid-flight by construction — packets are on the
  // wire, credits are outstanding. The final invariant sweep judges "did
  // the run end in a sane state", which is only meaningful for runs that
  // actually ended; gate it off so a budget abort never false-fires it.
  // Periodic sweeps that ran before the abort still count and still report.
  if (spec.check_invariants && !sim.aborted()) checker.run_checks();

  res.aborted = sim.aborted();
  if (res.aborted) {
    res.abort_reason = std::string(sim::abort_reason_name(sim.abort_reason()));
    rec.set_abort(res.abort_reason);
  }
  res.scheduled = driver.scheduled();
  res.completed = driver.completed();
  res.failed = driver.failed();
  res.all_completed = spec.stop.kind == StopKind::kCompletion
                          ? completion_result
                          : res.scheduled > 0 && res.completed == res.scheduled;
  res.end_time = sim.now();
  res.data_drops = topo.data_drops();
  res.credit_drops = topo.credit_drops();
  res.stray_credits = topo.stray_credits();
  res.max_switch_queue_bytes = topo.max_switch_data_queue_bytes();
  {
    double sum = 0;
    auto ports = topo.switch_ports();
    for (net::Port* p : ports) {
      sum += p->data_queue().stats().avg_bytes(sim.now());
    }
    res.avg_switch_queue_bytes =
        ports.empty() ? 0 : sum / static_cast<double>(ports.size());
  }
  if (b.bottleneck != nullptr) {
    const auto& qs = b.bottleneck->data_queue().stats();
    res.bottleneck_max_queue_bytes = qs.max_bytes;
    res.bottleneck_queue_drops = qs.dropped;
    res.bottleneck_tx_data_bytes = b.bottleneck->tx_data_bytes() - tx_before;
  }

  // Sum and Jain fold over the tracker's traversal order, then sort by flow
  // id for stable per-flow access.
  {
    std::vector<double> vals;
    vals.reserve(rate_pairs.size());
    for (const auto& [id, r] : rate_pairs) {
      (void)id;
      vals.push_back(r);
    }
    double sum = 0;
    for (double v : vals) sum += v;
    res.sum_rate_bps = sum;
    res.jain = stats::jain_index(vals);
    std::sort(rate_pairs.begin(), rate_pairs.end());
    res.flow_rates = std::move(rate_pairs);
  }

  res.fcts = driver.fcts();

  // Per-group coexistence extraction. A group flow counts as starved when
  // it neither completed nor sustained >= 5% of the all-flow mean goodput —
  // the quantitative answer to "does the 5% credit reservation protect
  // ExpressPass, or does cross-traffic starve it?".
  if (driver.group_count() > 0) {
    const double mean_rate =
        res.flow_rates.empty()
            ? 0.0
            : res.sum_rate_bps / static_cast<double>(res.flow_rates.size());
    const double starve_floor = 0.05 * mean_rate;
    res.groups.resize(driver.group_count());
    std::vector<size_t> ok_flows(res.groups.size(), 0);
    for (const auto& [id, r] : res.flow_rates) {
      const size_t g = driver.group_of(id);
      if (g >= res.groups.size()) continue;
      res.groups[g].goodput_bps += r;
      if (r >= starve_floor && r > 0.0) ++ok_flows[g];
    }
    for (size_t g = 0; g < res.groups.size(); ++g) {
      ScenarioResult::GroupResult& gr = res.groups[g];
      gr.protocol = g < spec.flow_groups.size() ? spec.flow_groups[g].protocol
                                                : spec.protocol;
      gr.scheduled = driver.group_scheduled(g);
      gr.completed = driver.group_completed(g);
      gr.failed = driver.group_failed(g);
      const size_t settled = gr.completed + gr.failed + ok_flows[g];
      gr.starved = gr.scheduled > settled ? gr.scheduled - settled : 0;
      gr.goodput_share =
          res.sum_rate_bps > 0 ? gr.goodput_bps / res.sum_rate_bps : 0.0;
      const auto& f = driver.group_fcts(g);
      if (f.completed() > 0) {
        gr.fct_avg_sec = f.all().mean();
        gr.fct_p99_sec = f.all().percentile(0.99);
      }
      const std::string pre = "group." + std::to_string(g) + ".";
      rec.set(pre + "goodput_bps", gr.goodput_bps);
      rec.set(pre + "goodput_share", gr.goodput_share);
      rec.set(pre + "flows", static_cast<double>(gr.scheduled));
      rec.set(pre + "completed", static_cast<double>(gr.completed));
      rec.set(pre + "failed", static_cast<double>(gr.failed));
      rec.set(pre + "starved", static_cast<double>(gr.starved));
      if (f.completed() > 0) {
        rec.set(pre + "fct.avg_sec", gr.fct_avg_sec);
        rec.set(pre + "fct.p99_sec", gr.fct_p99_sec);
      }
    }
  }

  if (is_expresspass(spec.protocol)) {
    const core::CreditLedger ledger =
        core::credit_ledger(topo, driver.connections());
    res.credits_received = ledger.received;
    res.credits_wasted = ledger.wasted;
    res.credit_waste_ratio = ledger.waste_ratio();
  } else if (auto* acct = dynamic_cast<const transport::GrantAccounting*>(
                 &driver.transport())) {
    // Proactive comparators (SIRD; BFC reports zeros) expose their
    // grant/credit waste through the framework's accounting hook. Distinct
    // recorder keys from ExpressPass's xp.* gauges: those count what
    // *arrived* at senders (credit_telemetry), these count what receivers
    // *issued* — the Fig-20 comparison normalizes each protocol by its own
    // denominator.
    const transport::GrantWaste gw = acct->grant_waste();
    res.credits_received = gw.issued;
    res.credits_wasted = gw.wasted;
    res.credit_waste_ratio = gw.waste_ratio();
    rec.set("proactive.grants_issued", static_cast<double>(gw.issued));
    rec.set("proactive.grants_consumed", static_cast<double>(gw.consumed));
    rec.set("proactive.grants_wasted", static_cast<double>(gw.wasted));
    rec.set("proactive.waste_ratio", gw.waste_ratio());
  }
  if (has_faults) {
    res.fault_totals = injector.totals();
    res.faults_fired = plan.fired();
  }
  if (spec.check_invariants) {
    res.invariant_sweeps = checker.sweeps();
    res.invariant_violations = checker.violations();
    res.invariant_messages = checker.messages();
  }

  // Mirror every standard scalar into the recorder so JSON emission is
  // uniform across scenarios, then freeze it for return.
  rec.set("time.end_sec", res.end_time.to_sec());
  rec.set("goodput.sum_bps", res.sum_rate_bps);
  rec.set("fairness.jain", res.jain);
  rec.set("queue.bottleneck.max_bytes",
          static_cast<double>(res.bottleneck_max_queue_bytes));
  rec.set("queue.bottleneck.tx_bytes",
          static_cast<double>(res.bottleneck_tx_data_bytes));
  if (res.fcts.completed() > 0) {
    const auto& f = res.fcts.all();
    rec.set("fct.count", static_cast<double>(res.fcts.completed()));
    rec.set("fct.avg_sec", f.mean());
    rec.set("fct.p50_sec", f.percentile(0.5));
    rec.set("fct.p99_sec", f.percentile(0.99));
  }
  if (has_faults) {
    rec.set("faults.fired", static_cast<double>(res.faults_fired));
    rec.set("faults.failures", static_cast<double>(res.fault_totals.failures));
    rec.set("faults.recoveries",
            static_cast<double>(res.fault_totals.recoveries));
  }
  if (spec.check_invariants) {
    rec.set("invariants.sweeps", static_cast<double>(res.invariant_sweeps));
    rec.set("invariants.violations",
            static_cast<double>(res.invariant_violations));
  }
  rec.detach();  // evaluate gauges, drop callbacks into the dying network
  res.recorder = std::move(rec);

  driver.stop_all();
  return res;
}

std::vector<ScenarioResult> ScenarioEngine::run_grid(
    const std::vector<ScenarioSpec>& grid, size_t jobs) const {
  exec::SweepRunner pool(jobs);
  return pool.map(grid.size(), [&](size_t i) { return run(grid[i]); });
}

}  // namespace xpass::runner
