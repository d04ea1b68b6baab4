#include "check/generator.hpp"

#include <algorithm>

namespace xpass::check {

namespace {

using runner::Protocol;
using runner::ScenarioSpec;
using runner::StopSpec;
using runner::TopologyKind;
using runner::TrafficKind;
using sim::Time;

template <typename T>
T pick(sim::Rng& rng, std::initializer_list<T> xs) {
  const auto i = static_cast<size_t>(
      rng.uniform_int(0, static_cast<int64_t>(xs.size()) - 1));
  return *(xs.begin() + i);
}

Protocol sample_protocol(sim::Rng& rng) {
  // ExpressPass-heavy: half the runs exercise the paper's protocol and its
  // property oracles; the rest spread over the comparators so the engine
  // oracles (determinism, relabel) sweep every transport.
  const double r = rng.uniform();
  if (r < 0.50) return Protocol::kExpressPass;
  if (r < 0.58) return Protocol::kExpressPassNaive;
  return pick(rng, {Protocol::kDctcp, Protocol::kRcp, Protocol::kHull,
                    Protocol::kDx, Protocol::kCubic, Protocol::kBbr,
                    Protocol::kDcqcn, Protocol::kTimely, Protocol::kSird,
                    Protocol::kBfc, Protocol::kIdeal});
}

bool xp_primary(Protocol p) {
  return p == Protocol::kExpressPass || p == Protocol::kExpressPassNaive;
}

// Protocols allowed as cross-traffic on an ExpressPass fabric (the
// drop-tail-compatible reactive set scenario.cpp admits into flow_groups).
Protocol sample_cross_protocol(sim::Rng& rng) {
  return pick(rng, {Protocol::kCubic, Protocol::kDctcp, Protocol::kBbr,
                    Protocol::kTimely, Protocol::kDx, Protocol::kRcp});
}

std::string_view topo_tag(TopologyKind k) {
  switch (k) {
    case TopologyKind::kDumbbell: return "dumbbell";
    case TopologyKind::kStar: return "star";
    case TopologyKind::kFatTree: return "fattree";
    case TopologyKind::kClos: return "clos";
    case TopologyKind::kParkingLot: return "parkinglot";
    case TopologyKind::kMultiBottleneck: return "multibottleneck";
  }
  return "?";
}

}  // namespace

ScenarioSpec generate_spec(sim::Rng& rng, uint64_t name_index,
                           const GenOptions& opts) {
  ScenarioSpec s;
  s.check_invariants = true;

  // --- protocol ----------------------------------------------------------
  s.protocol = opts.protocol ? *opts.protocol
               : opts.mixed  ? Protocol::kExpressPass
                             : sample_protocol(rng);

  // --- topology ----------------------------------------------------------
  {
    // Forced-mixed runs pin the coexistence oracle's calibrated scenario:
    // an ExpressPass dumbbell (see coexistence_scenario in oracles.cpp).
    const double r = opts.mixed ? 0.0 : rng.uniform();
    if (r < 0.40) {
      s.topology.kind = TopologyKind::kDumbbell;
    } else if (r < 0.60) {
      s.topology.kind = TopologyKind::kStar;
    } else if (r < 0.72) {
      s.topology.kind = TopologyKind::kParkingLot;
    } else if (r < 0.84) {
      s.topology.kind = TopologyKind::kMultiBottleneck;
    } else if (r < 0.94) {
      s.topology.kind = TopologyKind::kFatTree;
    } else {
      s.topology.kind = TopologyKind::kClos;
    }
    if (opts.topology) s.topology.kind = *opts.topology;
    switch (s.topology.kind) {
      case TopologyKind::kDumbbell:
        s.topology.scale = static_cast<size_t>(rng.uniform_int(2, 8));
        break;
      case TopologyKind::kStar:
        s.topology.scale = static_cast<size_t>(rng.uniform_int(3, 12));
        break;
      case TopologyKind::kParkingLot:
      case TopologyKind::kMultiBottleneck:
        s.topology.scale = static_cast<size_t>(rng.uniform_int(2, 5));
        break;
      case TopologyKind::kFatTree:
        s.topology.fat_tree_k = 4;
        break;
      case TopologyKind::kClos:
        // Micro-Clos: 2 pods x 2 ToRs x 2 hosts = 8 hosts, 2 cores.
        s.topology.clos = {2, 2, 1, 2, 2};
        break;
    }
    const bool chain_topology_kind =
        s.topology.kind == TopologyKind::kParkingLot ||
        s.topology.kind == TopologyKind::kMultiBottleneck;
    s.topology.host_rate_bps = chain_topology_kind
                                   ? pick(rng, {10e9, 40e9})
                                   : pick(rng, {1e9, 10e9, 40e9});
    // Above 10G, usually shrink the credit feedback period with the rate so
    // the scenario stays inside the convergence envelope the steady-state
    // oracles judge (rate x base_rtt <= ~1 Mbit); leave some runs at the
    // default 100us to exercise the slow-feedback regime under the
    // always-on oracles (invariants, zero-loss, queue-bound, determinism).
    // Chain topologies always take the fix-up: they are the maxmin-diff
    // oracle's main hunting ground (Fig 11), and at 1 Gbps or out-of-
    // envelope BDPs that oracle never arms.
    if (s.topology.host_rate_bps > 10e9 &&
        (chain_topology_kind || rng.uniform() < 0.7)) {
      s.base_rtt = Time::us(25);
    }
    // Fabric at host rate (congested core) or 4x (edge-limited).
    s.topology.fabric_rate_bps =
        rng.uniform() < 0.7 ? 0.0 : 4.0 * s.topology.host_rate_bps;
    s.topology.host_prop = Time::us(rng.uniform_int(1, 5));
    if (rng.uniform() < 0.3) {
      s.topology.fabric_prop = s.topology.host_prop * 2.0;
    }
    if (rng.uniform() < 0.2) {
      s.topology.credit_queue_pkts =
          static_cast<size_t>(rng.uniform_int(4, 16));
    }
    // A sliver of per-link propagation jitter (1-3us, can reorder packets).
    // Kept small relative to the us-scale props so the queue-bound slack
    // still covers the perturbed dynamics; the always-on oracles hunt for
    // reorder-sensitive state machines.
    if (rng.uniform() < 0.10) {
      s.topology.link_jitter = Time::us(rng.uniform_int(1, 3));
    }
  }

  // --- traffic -----------------------------------------------------------
  const size_t max_flows = std::max<size_t>(2, opts.max_flows);
  const bool chain_topology =
      s.topology.kind == TopologyKind::kParkingLot ||
      s.topology.kind == TopologyKind::kMultiBottleneck;
  const bool want_mixed =
      opts.mixed ||
      (xp_primary(s.protocol) &&
       s.topology.kind == TopologyKind::kDumbbell && rng.uniform() < 0.15);
  if (want_mixed) {
    // Mixed-protocol coexistence: all traffic comes from flow_groups (the
    // engine ignores spec.traffic then, but the long-running sentinel
    // below steers stop sampling onto the measurement-window path the
    // coexistence oracle requires).
    s.traffic.kind = TrafficKind::kPairwise;
    s.traffic.bytes = transport::kLongRunning;
    runner::FlowGroupSpec xp;
    xp.protocol = s.protocol;
    xp.traffic.kind = TrafficKind::kPairwise;
    xp.traffic.bytes = transport::kLongRunning;
    xp.traffic.flows = static_cast<size_t>(rng.uniform_int(2, 4));
    s.flow_groups.push_back(xp);
    const size_t cross = rng.uniform() < 0.3 ? 2 : 1;
    for (size_t i = 0; i < cross; ++i) {
      runner::FlowGroupSpec g;
      g.protocol = sample_cross_protocol(rng);
      g.traffic.bytes = transport::kLongRunning;
      if (rng.uniform() < 0.35) {
        // Real-time-style on/off bursts: the hostile regime for the credit
        // reservation (synchronized reactive bursts hammer the queue).
        g.traffic.kind = TrafficKind::kOnOff;
        g.traffic.on_period_sec = rng.uniform(2e-3, 8e-3);
        g.traffic.on_duty = rng.uniform(0.2, 0.8);
        g.traffic.flows = static_cast<size_t>(rng.uniform_int(2, 4));
      } else {
        g.traffic.kind = TrafficKind::kPairwise;
        g.traffic.flows = static_cast<size_t>(rng.uniform_int(2, 6));
      }
      s.flow_groups.push_back(g);
    }
  } else if (chain_topology) {
    s.traffic.kind = TrafficKind::kChain;
    s.traffic.bytes = transport::kLongRunning;
  } else {
    const double r = rng.uniform();
    if (r < 0.45) {
      s.traffic.kind = TrafficKind::kPairwise;
      s.traffic.flows = std::min(
          max_flows, static_cast<size_t>(rng.uniform_int(2, 12)));
      s.traffic.bytes = transport::kLongRunning;
      s.traffic.start_spread_sec = rng.uniform() < 0.5 ? 0.0 : 1e-3;
    } else if (r < 0.70) {
      s.traffic.kind = TrafficKind::kIncast;
      s.traffic.flows = std::min(
          max_flows, static_cast<size_t>(rng.uniform_int(2, 16)));
      s.traffic.bytes = static_cast<uint64_t>(rng.uniform_int(50, 500)) * 1000;
    } else if (r < 0.90) {
      s.traffic.kind = TrafficKind::kPoisson;
      s.traffic.flows = std::min(
          max_flows, static_cast<size_t>(rng.uniform_int(4, 16)));
      s.traffic.workload = pick(
          rng, {workload::WorkloadKind::kWebServer,
                workload::WorkloadKind::kWebSearch,
                workload::WorkloadKind::kCacheFollower,
                workload::WorkloadKind::kDataMining});
      s.traffic.load = rng.uniform(0.3, 0.8);
    } else {
      // Duty-cycled bursts from long-lived sources: exercises the burst
      // scheduler and the engine oracles under non-stationary load (the
      // steady-state oracles deliberately disarm on kOnOff).
      s.traffic.kind = TrafficKind::kOnOff;
      s.traffic.flows = std::min(
          max_flows, static_cast<size_t>(rng.uniform_int(2, 8)));
      s.traffic.bytes = transport::kLongRunning;
      s.traffic.on_period_sec = rng.uniform(2e-3, 8e-3);
      s.traffic.on_duty = rng.uniform(0.2, 0.8);
    }
  }

  // --- stop condition ----------------------------------------------------
  if (s.traffic.bytes == transport::kLongRunning) {
    // Long-running flows: measure a steady-state window after warmup. The
    // warmup floor matches the steady-state oracles' 10ms applicability
    // gate — shares converge by ~10ms across the generated rate/prop range.
    const auto warmup = Time::ms(rng.uniform_int(10, 16));
    // Windows reaching past 40ms arm the maxmin-diff oracle, which needs
    // that much averaging to sit reliably inside its tolerance band. Chain
    // runs always get one: Fig 11's flow-0 band is the only differential
    // reference for multi-bottleneck topologies, so never generate a chain
    // whose window disarms it.
    const auto window = chain_topology ? Time::ms(rng.uniform_int(40, 50))
                                       : Time::ms(rng.uniform_int(15, 50));
    s.stop = StopSpec::measure_window(warmup, window);
  } else {
    s.stop = StopSpec::completion(Time::sec(2));
  }

  // --- faults ------------------------------------------------------------
  if (opts.faults && rng.uniform() < 0.25) {
    const double r = rng.uniform();
    const Time horizon =
        s.stop.kind == runner::StopKind::kWindow
            ? s.stop.warmup + s.stop.window
            : Time::ms(40);  // completion runs: fault early, not at 2s
    if (r < 0.4) {
      s.faults.flap_down = horizon * rng.uniform(0.1, 0.4);
      s.faults.flap_up = s.faults.flap_down + horizon * rng.uniform(0.1, 0.3);
      s.faults.fail_mode = rng.uniform() < 0.5 ? net::LinkFailMode::kDrop
                                               : net::LinkFailMode::kDrain;
    } else if (r < 0.6) {
      s.faults.kill_at = horizon * rng.uniform(0.3, 0.7);
    } else {
      // Per-frame error models, dosed separately per class (§3.2).
      if (rng.uniform() < 0.7) {
        s.faults.errors.credit_drop = rng.uniform(1e-4, 5e-3);
      }
      if (rng.uniform() < 0.5) {
        s.faults.errors.data_drop = rng.uniform(1e-4, 2e-3);
      }
      if (rng.uniform() < 0.3) {
        s.faults.errors.data_corrupt = rng.uniform(1e-4, 1e-3);
      }
      if (!s.faults.errors.enabled()) {
        s.faults.errors.credit_drop = 1e-3;
      }
    }
    s.fault_seed = rng.bits();
  }

  s.seed = rng.bits();
  s.name = "fuzz/" + std::to_string(name_index) + "/" +
           std::string(topo_tag(s.topology.kind));
  return s;
}

}  // namespace xpass::check
