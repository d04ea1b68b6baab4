#include "compose.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/credit_telemetry.hpp"
#include "net/topology_builders.hpp"
#include "runner/flow_driver.hpp"
#include "runner/protocols.hpp"
#include "stats/fairness.hpp"
#include "transport/credit_sched.hpp"
#include "workload/generators.hpp"

namespace xpass::benchmark {

namespace {

using runner::ScenarioSpec;
using runner::StopKind;
using runner::TopologyKind;
using runner::TrafficKind;

bool is_expresspass(runner::Protocol p) {
  return p == runner::Protocol::kExpressPass ||
         p == runner::Protocol::kExpressPassNaive;
}

void require_supported(const ScenarioSpec& spec) {
  const auto reject = [&](const char* what) {
    throw std::invalid_argument(spec.name + ": the traced run does not " +
                                "reproduce " + what);
  };
  const runner::TelemetrySpec& t = spec.telemetry;
  if (!spec.flow_groups.empty()) reject("flow groups");
  if (spec.faults.any()) reject("faults");
  if (spec.check_invariants) reject("invariant sweeps");
  if (spec.budget) reject("run budgets");
  if (t.sample_interval > sim::Time::zero() || t.bottleneck_queue_series ||
      t.per_port_queue_series || t.flow_rate_series) {
    reject("telemetry series");
  }
  if (spec.traffic.kind != TrafficKind::kPairwise &&
      spec.traffic.kind != TrafficKind::kPoisson) {
    reject("this traffic kind");
  }
}

// What the run needs from the built fabric.
struct Fabric {
  std::vector<net::Host*> hosts;
  std::vector<net::Host*> peers;
  std::vector<net::Port*> tor_uplinks;
  net::Port* bottleneck = nullptr;
};

Fabric build(const ScenarioSpec& spec, net::Topology& topo, double fabric_rate,
             sim::Time fabric_prop) {
  const runner::TopologySpec& ts = spec.topology;
  net::LinkConfig host_cfg =
      runner::protocol_link_config(spec.protocol, ts.host_rate_bps,
                                   ts.host_prop);
  net::LinkConfig fabric_cfg =
      runner::protocol_link_config(spec.protocol, fabric_rate, fabric_prop);
  for (net::LinkConfig* cfg : {&host_cfg, &fabric_cfg}) {
    if (ts.credit_queue_pkts) cfg->credit_queue_pkts = *ts.credit_queue_pkts;
    if (ts.host_credit_shaper_noise) {
      cfg->host_credit_shaper_noise = *ts.host_credit_shaper_noise;
    }
    if (ts.link_jitter > sim::Time::zero()) cfg->prop_jitter = ts.link_jitter;
  }

  Fabric f;
  switch (ts.kind) {
    case TopologyKind::kDumbbell: {
      auto d = net::build_dumbbell(topo, ts.scale, host_cfg, fabric_cfg);
      f.hosts = d.senders;
      f.peers = d.receivers;
      f.bottleneck = d.bottleneck;
      break;
    }
    case TopologyKind::kClos: {
      auto c = net::build_clos(topo, ts.clos.n_core, ts.clos.pods,
                               ts.clos.aggr_per_pod, ts.clos.tor_per_pod,
                               ts.clos.hosts_per_tor, host_cfg, fabric_cfg);
      f.hosts = c.hosts;
      f.tor_uplinks = c.tor_uplinks;
      break;
    }
    default:
      throw std::invalid_argument(spec.name +
                                  ": the traced run builds only dumbbell "
                                  "and Clos topologies");
  }
  if (ts.host_delay != runner::HostDelay::kNone) {
    const net::HostDelayModel model =
        ts.host_delay == runner::HostDelay::kTestbed
            ? net::HostDelayModel::testbed()
            : net::HostDelayModel::hardware();
    for (net::Host* h : topo.hosts()) h->set_delay_model(model);
  }
  if (ts.packet_spraying) {
    for (net::Switch* sw : topo.switches()) sw->set_packet_spraying(true);
  }
  return f;
}

// Flow list in the engine's RNG draw order. Creating a connection draws
// nothing from the RNG, so generating every flow before adding any keeps
// the engine's stream positions.
std::vector<transport::FlowSpec> generate(const ScenarioSpec& spec,
                                          const Fabric& f, sim::Simulator& sim,
                                          double fabric_rate) {
  const runner::TrafficSpec& tr = spec.traffic;
  std::vector<transport::FlowSpec> flows;
  if (tr.kind == TrafficKind::kPairwise) {
    for (size_t i = 0; i < tr.flows; ++i) {
      transport::FlowSpec s;
      s.id = tr.flow_id_salt + static_cast<uint32_t>(i + 1);
      s.src = f.hosts[i % f.hosts.size()];
      s.dst = f.peers.empty()
                  ? f.hosts[(i + 1 + f.hosts.size() / 2) % f.hosts.size()]
                  : f.peers[i % f.peers.size()];
      if (s.dst == s.src) s.dst = f.hosts[(i + 1) % f.hosts.size()];
      s.size_bytes = tr.bytes;
      if (tr.start_spread_sec > 0) {
        s.start_time =
            sim::Time::seconds(sim.rng().uniform(0.0, tr.start_spread_sec));
      }
      flows.push_back(s);
    }
    return flows;
  }
  const workload::FlowSizeDist dist = workload::FlowSizeDist::make(tr.workload);
  std::vector<net::Host*> pool = f.hosts;
  pool.insert(pool.end(), f.peers.begin(), f.peers.end());
  const double capacity =
      tr.capacity_bps ? *tr.capacity_bps
      : !f.tor_uplinks.empty()
          ? static_cast<double>(f.tor_uplinks.size()) * fabric_rate
          : static_cast<double>(pool.size()) * spec.topology.host_rate_bps /
                3.0;
  const double lambda =
      workload::lambda_for_load(tr.load, capacity, dist.mean());
  return workload::poisson_flows(sim.rng(), pool, dist, lambda, tr.flows,
                                 sim::Time::zero(), tr.flow_id_salt + 1);
}

Counters count_work(net::Topology& topo, sim::Simulator& sim,
                    runner::FlowDriver& driver) {
  Counters c;
  c.flows = driver.scheduled();
  c.events = sim.events().fired();
  c.cancelled = sim.events().cancelled();
  c.pool_slots = sim.events().pool_slots();
  c.credit_drops = topo.credit_drops();
  for (size_t n = 0; n < topo.num_nodes(); ++n) {
    net::Node& node = topo.node(static_cast<net::NodeId>(n));
    for (size_t i = 0; i < node.num_ports(); ++i) {
      const net::Port& p = node.port(i);
      ++c.ports;
      c.packet_hops += p.tx_packets();
      c.credit_hops += p.tx_credits();
      c.kick_events += p.kick_events();
      c.retry_events += p.retry_events();
      if (node.kind() == net::Node::Kind::kHost) {
        c.credits_emitted += p.tx_credits();
      }
    }
  }
  return c;
}

}  // namespace

Counters& Counters::operator+=(const Counters& o) {
  flows += o.flows;
  events += o.events;
  cancelled += o.cancelled;
  pool_slots = std::max(pool_slots, o.pool_slots);
  ports += o.ports;
  packet_hops += o.packet_hops;
  credit_hops += o.credit_hops;
  credits_emitted += o.credits_emitted;
  credit_drops += o.credit_drops;
  kick_events += o.kick_events;
  retry_events += o.retry_events;
  credits_received += o.credits_received;
  credits_used += o.credits_used;
  return *this;
}

Composed compose(const ScenarioSpec& spec, Tracer& tracer, uint32_t run) {
  require_supported(spec);
  ScopedSpan whole(tracer, "run", run);

  // Heap-held so teardown can run inside its own span, in the engine's
  // destruction order (driver, transport, topology, simulator).
  auto sim = std::make_unique<sim::Simulator>(spec.seed);
  auto topo = std::make_unique<net::Topology>(*sim);
  const runner::TopologySpec& ts = spec.topology;
  const double fabric_rate =
      ts.fabric_rate_bps > 0 ? ts.fabric_rate_bps : ts.host_rate_bps;
  const sim::Time fabric_prop =
      ts.fabric_prop > sim::Time::zero() ? ts.fabric_prop : ts.host_prop;

  Fabric fabric;
  {
    ScopedSpan s(tracer, "net.build", run);
    fabric = build(spec, *topo, fabric_rate, fabric_prop);
  }
  std::unique_ptr<transport::Transport> transport;
  std::unique_ptr<runner::FlowDriver> driver;
  {
    ScopedSpan s(tracer, "runner.make_transport", run);
    transport = runner::make_transport(spec.protocol, *sim, *topo,
                                       spec.base_rtt,
                                       spec.xp ? &*spec.xp : nullptr);
    driver = std::make_unique<runner::FlowDriver>(*sim, *transport);
  }
  std::vector<transport::FlowSpec> flows;
  {
    ScopedSpan s(tracer, "workload.gen", run);
    flows = generate(spec, fabric, *sim, fabric_rate);
  }
  {
    ScopedSpan s(tracer, "runner.flow_add", run);
    for (const transport::FlowSpec& f : flows) driver->add(f);
  }
  stats::Recorder rec;
  {
    ScopedSpan s(tracer, "stats.register", run);
    topo->register_telemetry(rec, false);
    driver->register_telemetry(rec, false);
    if (is_expresspass(spec.protocol)) {
      core::register_credit_telemetry(rec, *topo, driver->connections());
    }
  }

  // Simulator::run_until in 1 ms slices: a sliced run fires the same
  // events in the same order as one call to the end time. Warm-up slices
  // get their own span name, so allocations counted under sim.run_until
  // are those of the measured (steady-state) interval.
  const sim::Time slice = sim::Time::ms(1);
  const auto run_to = [&](sim::Time until, const char* name) {
    while (sim->now() < until) {
      ScopedSpan s(tracer, name, run);
      sim->run_until(std::min(sim->now() + slice, until));
    }
  };
  std::vector<std::pair<uint32_t, double>> rate_pairs;
  uint64_t tx_before = 0;
  bool completion_result = false;
  switch (spec.stop.kind) {
    case StopKind::kRunFor:
      run_to(spec.stop.horizon, "sim.run_until");
      break;
    case StopKind::kWindow: {
      run_to(spec.stop.warmup, "sim.warmup");
      {
        ScopedSpan s(tracer, "stats.measure", run);
        if (fabric.bottleneck != nullptr) {
          tx_before = fabric.bottleneck->tx_data_bytes();
        }
        driver->rates().snapshot_rates_ordered(spec.stop.warmup);  // reset
      }
      run_to(spec.stop.warmup + spec.stop.window, "sim.run_until");
      ScopedSpan s(tracer, "stats.measure", run);
      rate_pairs = driver->rates().snapshot_rates_ordered(spec.stop.window);
      break;
    }
    case StopKind::kCompletion: {
      // FlowDriver::run_to_completion's settle loop, one span per chunk.
      const sim::Time deadline = spec.stop.horizon;
      while (sim->now() < deadline &&
             driver->completed() + driver->failed() < driver->scheduled()) {
        ScopedSpan s(tracer, "sim.run_until", run);
        sim->run_until(std::min(sim->now() + slice, deadline));
      }
      completion_result = driver->completed() >= driver->scheduled();
      break;
    }
  }

  // The engine's finish_run for the supported subset.
  Composed out;
  out.counters = count_work(*topo, *sim, *driver);
  runner::ScenarioResult& res = out.result;
  {
    ScopedSpan s(tracer, "stats.measure", run);
    if (spec.stop.kind != StopKind::kWindow) {
      rate_pairs = driver->rates().snapshot_rates_ordered(sim->now());
    }
    res.name = spec.name;
    res.seed = spec.seed;
    res.scheduled = driver->scheduled();
    res.completed = driver->completed();
    res.failed = driver->failed();
    res.all_completed = spec.stop.kind == StopKind::kCompletion
                            ? completion_result
                            : res.scheduled > 0 &&
                                  res.completed == res.scheduled;
    res.end_time = sim->now();
    res.data_drops = topo->data_drops();
    res.credit_drops = topo->credit_drops();
    res.stray_credits = topo->stray_credits();
    res.max_switch_queue_bytes = topo->max_switch_data_queue_bytes();
    if (fabric.bottleneck != nullptr) {
      const auto& qs = fabric.bottleneck->data_queue().stats();
      res.bottleneck_max_queue_bytes = qs.max_bytes;
      res.bottleneck_queue_drops = qs.dropped;
      res.bottleneck_tx_data_bytes =
          fabric.bottleneck->tx_data_bytes() - tx_before;
    }
    std::vector<double> vals;
    vals.reserve(rate_pairs.size());
    for (const auto& pr : rate_pairs) vals.push_back(pr.second);
    double sum = 0;
    for (double v : vals) sum += v;
    res.sum_rate_bps = sum;
    res.jain = stats::jain_index(vals);
    std::sort(rate_pairs.begin(), rate_pairs.end());
    res.flow_rates = std::move(rate_pairs);
    res.fcts = driver->fcts();

    if (is_expresspass(spec.protocol)) {
      const core::CreditLedger ledger =
          core::credit_ledger(*topo, driver->connections());
      res.credits_received = ledger.received;
      res.credits_wasted = ledger.wasted;
      res.credit_waste_ratio = ledger.waste_ratio();
      out.counters.credits_received = ledger.received;
      out.counters.credits_used = ledger.received - ledger.wasted;
    } else if (auto* acct = dynamic_cast<const transport::GrantAccounting*>(
                   &driver->transport())) {
      const transport::GrantWaste gw = acct->grant_waste();
      res.credits_received = gw.issued;
      res.credits_wasted = gw.wasted;
      res.credit_waste_ratio = gw.waste_ratio();
      rec.set("proactive.grants_issued", static_cast<double>(gw.issued));
      rec.set("proactive.grants_consumed", static_cast<double>(gw.consumed));
      rec.set("proactive.grants_wasted", static_cast<double>(gw.wasted));
      rec.set("proactive.waste_ratio", gw.waste_ratio());
      out.counters.credits_received = gw.issued;
      out.counters.credits_used = gw.consumed;
    }

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
    rec.detach();
  }
  res.recorder = std::move(rec);

  {
    ScopedSpan s(tracer, "runner.teardown", run);
    driver->stop_all();
    driver.reset();
    transport.reset();
    topo.reset();
    sim.reset();
  }
  return out;
}

}  // namespace xpass::benchmark
