// ScenarioSpec -> ScenarioEngine: the declarative experiment layer.
//
// A ScenarioSpec names everything a paper figure/table cell needs — the
// topology kind and scale, the protocol (plus ExpressPass overrides), the
// traffic pattern, the fault plan, the stop condition, and the telemetry to
// record — and ScenarioEngine::run() builds the network, drives the
// simulation, and returns a ScenarioResult with every standard measurement
// plus a stats::Recorder of named probes. Grids of specs (sweep axes) run
// through run_grid() on an exec::SweepRunner with deterministic,
// jobs-independent results.
//
// The engine reproduces the exact construction order of the hand-wired
// benches it replaced (simulator, topology, transport, flows — including
// the RNG draws for randomized start times), so a ported bench's default
// output is byte-identical to its pre-spec version. The golden tests in
// tests/golden/ pin that property.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/expresspass.hpp"
#include "net/topology.hpp"
#include "runner/faults.hpp"
#include "runner/protocols.hpp"
#include "sim/run_budget.hpp"
#include "stats/fct.hpp"
#include "stats/recorder.hpp"
#include "workload/flow_size_dist.hpp"

namespace xpass::runner {

// --- Shared experiment constants (single source of truth) -----------------
// §6.3 Clos fabric scale: 8 cores / 16 aggrs / 32 ToRs / 192 hosts at full
// (paper) scale, 3:1 oversubscribed at the ToR layer; quarter scale for the
// fast default runs. Consumed by the spec layer, bench/workload_runner.hpp,
// and the CLI — previously each had its own copy.
struct ClosScale {
  size_t n_core = 4;
  size_t pods = 4;
  size_t aggr_per_pod = 2;
  size_t tor_per_pod = 2;
  size_t hosts_per_tor = 6;
};
constexpr ClosScale clos_scale(bool full_scale) {
  return full_scale ? ClosScale{8, 8, 2, 4, 6} : ClosScale{4, 4, 2, 2, 6};
}
// Default seeds: the CLI / generic scenarios, and the §6.3 workload runs.
inline constexpr uint64_t kDefaultSeed = 1;
inline constexpr uint64_t kWorkloadSeed = 101;
inline constexpr uint64_t kDefaultFaultSeed = 0xfa17;

// --- Topology -------------------------------------------------------------
enum class TopologyKind {
  kDumbbell,         // `scale` sender/receiver pairs around one bottleneck
  kStar,             // `scale` hosts under one ToR
  kFatTree,          // k-ary fat tree (fat_tree_k)
  kClos,             // 3-tier oversubscribed Clos (clos scale)
  kParkingLot,       // chain with `scale` bottleneck links (Fig 10)
  kMultiBottleneck,  // 4-switch chain, `scale` 3-hop flows (Fig 11)
};

enum class HostDelay { kNone, kTestbed, kHardware };

struct TopologySpec {
  TopologyKind kind = TopologyKind::kDumbbell;
  size_t scale = 2;
  size_t fat_tree_k = 4;
  ClosScale clos = clos_scale(false);
  double host_rate_bps = 10e9;
  double fabric_rate_bps = 0;  // 0 = host rate
  sim::Time host_prop = sim::Time::us(1);
  sim::Time fabric_prop;  // zero = host_prop
  // Per-protocol queue/link parameters come from protocol_link_config();
  // these override individual knobs on top of it.
  std::optional<size_t> credit_queue_pkts;
  std::optional<double> host_credit_shaper_noise;
  HostDelay host_delay = HostDelay::kNone;
  bool packet_spraying = false;
  // Per-packet propagation jitter applied to every link (host and fabric):
  // each exact-mode delivery adds U(0, link_jitter) to the propagation
  // delay. Models variable last hops for the real-time scenarios; zero
  // (default) draws nothing, so legacy runs stay byte-identical.
  sim::Time link_jitter;
};

// --- Traffic --------------------------------------------------------------
enum class TrafficKind {
  kPairwise,  // flow i: sender i -> receiver i (cycled); `flows` flows
  kIncast,    // hosts[1..] -> hosts[0], fan-in `flows`
  kShuffle,   // all-to-all between tasks_per_host tasks on every host
  kPoisson,   // poisson arrivals from a Table-2 size distribution @ `load`
  kChain,     // the topology-defined flows of parking-lot/multi-bottleneck
  kOnOff,     // media-style on/off sources: periodic refresh bursts
};

struct TrafficSpec {
  TrafficKind kind = TrafficKind::kPairwise;
  size_t flows = 2;  // pairwise count / incast fan-in / poisson flow count
  uint64_t bytes = transport::kLongRunning;
  // Pairwise: each flow starts at U(0, start_spread_sec), drawn in flow
  // order from the scenario RNG (0 = all start at t=0).
  double start_spread_sec = 0;
  size_t tasks_per_host = 4;  // shuffle
  workload::WorkloadKind workload = workload::WorkloadKind::kWebServer;
  double load = 0.6;  // poisson: target load on the ToR uplinks
  // Poisson load base override (bps). Unset: Clos uses the aggregate ToR
  // up-link capacity (§6.3), other topologies aggregate-host-rate / 3.
  std::optional<double> capacity_bps;
  // kOnOff: each of `flows` sources emits one refresh burst per cycle of
  // `on_period_sec`, phase-shifted by a per-source U(0, period) draw (one
  // draw per source, in source order, from the scenario RNG). The burst is
  // `bytes` when set; kLongRunning (the default) sizes it so the source
  // averages `on_duty` of its line rate — an application-limited pattern no
  // other TrafficKind can produce. Cycles cover the stop horizon.
  double on_period_sec = 0.01;
  double on_duty = 0.5;
  // Added to every flow id (flow i gets id salt + i + 1). Pure relabeling:
  // nothing else in the run may depend on it — the check::flow-relabel
  // metamorphic oracle pins that aggregate results are salt-invariant.
  uint32_t flow_id_salt = 0;
};

// --- Mixed-protocol flow groups -------------------------------------------
// Heterogeneous coexistence: when ScenarioSpec::flow_groups is non-empty,
// *all* traffic comes from the groups (spec.traffic is unused) and each
// group's flows are created through its own protocol's transport on the one
// shared fabric. The fabric's link configuration still comes from
// spec.protocol (the "primary" — put ExpressPass there so credit shapers
// exist); a kDctcp group additionally merges its ECN marking threshold into
// the shared queues. Group flow ids are salted apart (group g adds g<<20),
// preserving the flow-relabel invariant per group.
struct FlowGroupSpec {
  Protocol protocol = Protocol::kCubic;
  TrafficSpec traffic;
  // Informational entitlement weight used by the coexistence oracle and the
  // ext_coexistence bench (goodput share is normalized against it); the
  // engine itself does not enforce shares.
  double share = 1.0;
};

// --- Stop condition -------------------------------------------------------
enum class StopKind {
  kRunFor,      // run_until(horizon)
  kWindow,      // run warmup, snapshot, run window; rates are per-window
  kCompletion,  // run until every flow settles or `horizon` (deadline)
};

struct StopSpec {
  StopKind kind = StopKind::kRunFor;
  sim::Time horizon = sim::Time::ms(100);  // kRunFor / kCompletion deadline
  sim::Time warmup;  // kWindow
  sim::Time window;  // kWindow

  static StopSpec run_for(sim::Time horizon) {
    return {StopKind::kRunFor, horizon, {}, {}};
  }
  static StopSpec measure_window(sim::Time warmup, sim::Time window) {
    return {StopKind::kWindow, {}, warmup, window};
  }
  static StopSpec completion(sim::Time deadline) {
    return {StopKind::kCompletion, deadline, {}, {}};
  }
};

// --- Telemetry ------------------------------------------------------------
struct TelemetrySpec {
  // Zero = scalars only. Otherwise the engine samples every registered
  // series probe at this interval (stepping run_until, so sampling never
  // perturbs event order).
  sim::Time sample_interval;
  bool bottleneck_queue_series = false;  // "queue.bottleneck.bytes"
  bool per_port_queue_series = false;    // "queue.<switch>-><peer>.bytes"
  bool flow_rate_series = false;         // "flow.<id>.bytes" (cumulative)
};

// --- The spec -------------------------------------------------------------
struct ScenarioSpec {
  std::string name = "scenario";
  uint64_t seed = kDefaultSeed;
  TopologySpec topology;
  Protocol protocol = Protocol::kExpressPass;
  // ExpressPass parameter overrides (alpha, w_init, jitter, naive, ...).
  // make_transport() still pins update_period to base_rtt.
  std::optional<core::ExpressPassConfig> xp;
  sim::Time base_rtt = sim::Time::us(100);
  TrafficSpec traffic;
  // Mixed-protocol coexistence groups (see FlowGroupSpec). Empty = the
  // classic single-protocol path, byte-identical to every pre-existing run.
  std::vector<FlowGroupSpec> flow_groups;
  StopSpec stop;
  TelemetrySpec telemetry;
  // Faults target the first switch--switch link (or the first link when
  // the topology has none), exactly like the CLI always did.
  FaultScenario faults;
  uint64_t fault_seed = kDefaultFaultSeed;
  bool check_invariants = false;
  // Optional run budget (event / sim-time / wall-clock / live-event caps).
  // Exceeding a cap truncates the run gracefully: the result is still fully
  // measured and emitted, flagged aborted with the tripped budget's name.
  // Part of the spec — it round-trips through spec_json and participates in
  // campaign content addressing (a budgeted run IS a different experiment).
  std::optional<sim::RunBudget> budget;
};

// Per-invocation enforcement knobs that are NOT part of the experiment's
// identity: a campaign's --timeout-ms applies a wall-clock leash to every
// task without changing any spec (or its cache key — wall-clock truncations
// are machine-dependent and never cached anyway).
struct RunOverrides {
  double wall_clock_ms = 0;  // 0 = no override
};

// --- The result -----------------------------------------------------------
struct ScenarioResult {
  std::string name;
  uint64_t seed = 0;

  size_t scheduled = 0;
  size_t completed = 0;
  size_t failed = 0;
  bool all_completed = false;
  sim::Time end_time;

  uint64_t data_drops = 0;
  uint64_t credit_drops = 0;
  uint64_t stray_credits = 0;

  // Observation ("bottleneck") port: the dumbbell bottleneck, the incast
  // sink's downlink, parking-lot link 1, multi-bottleneck link 1. Zero for
  // topologies without a canonical bottleneck (Clos).
  uint64_t bottleneck_max_queue_bytes = 0;
  uint64_t bottleneck_queue_drops = 0;
  // tx_data_bytes across the measurement window (kWindow) / the whole run.
  uint64_t bottleneck_tx_data_bytes = 0;

  uint64_t max_switch_queue_bytes = 0;
  double avg_switch_queue_bytes = 0;  // time-weighted, over switch ports

  // Per-flow goodput (bits/sec) over the measurement window (kWindow) or
  // the whole run, ascending flow id. sum/jain are over the same values.
  std::vector<std::pair<uint32_t, double>> flow_rates;
  double sum_rate_bps = 0;
  double jain = 1.0;
  double rate_of(uint32_t flow) const {
    for (const auto& [id, r] : flow_rates) {
      if (id == flow) return r;
    }
    return 0.0;
  }

  stats::FctCollector fcts;

  // Per-group coexistence results (empty unless spec.flow_groups was set),
  // indexed like spec.flow_groups. goodput_share is this group's fraction
  // of sum_rate_bps; starved counts measured flows whose goodput fell under
  // 5% of the all-flow mean (the starvation criterion the coexistence
  // oracle and ext_coexistence bench both use).
  struct GroupResult {
    Protocol protocol = Protocol::kCubic;
    size_t scheduled = 0;
    size_t completed = 0;
    size_t failed = 0;
    size_t starved = 0;
    double goodput_bps = 0;
    double goodput_share = 0;
    double fct_avg_sec = 0;
    double fct_p99_sec = 0;
  };
  std::vector<GroupResult> groups;

  // ExpressPass only: wasted / received credits at senders, strays counted
  // in both (the Fig 20 metric).
  double credit_waste_ratio = 0;
  uint64_t credits_received = 0;  // incl. strays
  uint64_t credits_wasted = 0;    // incl. strays

  // Faults / invariants (zero / empty when not enabled).
  net::FaultStats fault_totals;
  uint64_t faults_fired = 0;
  uint64_t invariant_sweeps = 0;
  uint64_t invariant_violations = 0;
  std::vector<std::string> invariant_messages;

  // Budget truncation (RunBudget / RunOverrides). An aborted result is a
  // valid measurement of a shorter run: every scalar above is still filled,
  // but final invariant sweeps are skipped (a truncated network is mid-
  // flight by construction, not broken) and kWindow/kCompletion semantics
  // cover only the simulated portion.
  bool aborted = false;
  std::string abort_reason;  // sim::abort_reason_name spelling

  // Every scalar above plus any registered probe, for uniform JSON
  // emission (gauges are detached — safe to keep past the run).
  stats::Recorder recorder;
};

// --- The engine -----------------------------------------------------------
class ScenarioEngine {
 public:
  // Builds, runs, measures, tears down. Deterministic in (spec.seed, spec).
  ScenarioResult run(const ScenarioSpec& spec) const {
    return run(spec, RunOverrides{});
  }
  // Same, with caller-side enforcement overrides merged into the budget.
  ScenarioResult run(const ScenarioSpec& spec,
                     const RunOverrides& overrides) const;

  // Runs every spec of a sweep grid on an exec::SweepRunner (jobs == 0:
  // XPASS_JOBS / hardware concurrency). Results are index-ordered and
  // byte-identical for any worker count.
  std::vector<ScenarioResult> run_grid(const std::vector<ScenarioSpec>& grid,
                                       size_t jobs = 0) const;
};

// Sweep-axis expansion: one grid = base specs x axis values. apply(spec,
// value) mutates the copied spec; name_suffix values land in spec.name.
template <typename T, typename Fn>
std::vector<ScenarioSpec> expand_axis(const std::vector<ScenarioSpec>& base,
                                      const std::vector<T>& axis, Fn&& apply) {
  std::vector<ScenarioSpec> out;
  out.reserve(base.size() * axis.size());
  for (const ScenarioSpec& b : base) {
    for (const T& v : axis) {
      ScenarioSpec s = b;
      apply(s, v);
      out.push_back(std::move(s));
    }
  }
  return out;
}

}  // namespace xpass::runner
