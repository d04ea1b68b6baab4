// The traced run's re-composition of ScenarioEngine::run.
//
// compose() drives one spec through each layer's public calls in the
// engine's construction order (net::build_*, runner::make_transport,
// workload generators, FlowDriver::add, Simulator::run_until in 1 ms
// slices, the credit ledger and rate/FCT snapshots), with a span around
// every call, and returns a ScenarioResult whose recorder matches the
// engine's for the same spec. benchmark/run.py checks that match before it
// trusts any per-layer number.
//
// It covers what the benchmark's specs use: one protocol, pairwise or
// Poisson traffic, no faults, invariant sweeps, budgets, flow groups or
// telemetry series. Anything else throws std::invalid_argument.
#pragma once

#include <cstdint>

#include "runner/scenario.hpp"
#include "trace.hpp"

namespace xpass::benchmark {

// Deterministic work counts of composed runs.
struct Counters {
  uint64_t flows = 0;
  uint64_t events = 0;
  uint64_t cancelled = 0;
  uint64_t pool_slots = 0;  // max over runs: a footprint, not work
  uint64_t ports = 0;
  uint64_t packet_hops = 0;        // tx_packets over every port
  uint64_t credit_hops = 0;        // tx_credits over every port
  uint64_t credits_emitted = 0;    // tx_credits of host NICs (receivers)
  uint64_t credit_drops = 0;
  uint64_t kick_events = 0;
  uint64_t retry_events = 0;
  uint64_t credits_received = 0;   // at senders (ExpressPass) / issued (SIRD)
  uint64_t credits_used = 0;       // answered with data

  Counters& operator+=(const Counters& o);
};

struct Composed {
  runner::ScenarioResult result;
  Counters counters;
};

// Runs `spec` with every span tagged `run`.
Composed compose(const runner::ScenarioSpec& spec, Tracer& tracer,
                 uint32_t run);

}  // namespace xpass::benchmark
