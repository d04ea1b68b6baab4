// Zero-allocation hot path: a warmed-up ExpressPass steady state must not
// touch the global allocator at all.
//
// This binary links bench/alloc_probe.cpp, whose counting operator
// new/delete observe every allocation. The simulation below reaches steady
// state (pools, ring buffers, event slots and wheel nodes all at their
// high-water marks), then runs a long measurement window under the probe.
// Every per-packet and per-timer structure is recycled, so the expected
// allocation count is exactly zero — one stray capture spill or deque block
// fails the test.
//
// The Fig 15 cases below also pin that scenario's work counters exactly,
// so any change to the event pattern fails here, in every build.
#include <gtest/gtest.h>

#include "bench/alloc_probe.hpp"
#include "net/topology_builders.hpp"
#include "runner/flow_driver.hpp"
#include "runner/protocols.hpp"

namespace {

using namespace xpass;
using sim::Time;

struct SteadyWindow {
  bench::AllocProbe::Counts allocs;
  uint64_t events = 0;
  size_t pool_slots = 0;
};

// 16 long-running flows of `proto` on a 10G dumbbell: a 40 ms warm-up, in
// which feedback converges and every pool/ring/slab reaches its high-water
// mark, then a 50 ms window under the probe.
SteadyWindow run_dumbbell(runner::Protocol proto) {
  sim::Simulator sim(29);
  net::Topology topo(sim);
  const auto link = runner::protocol_link_config(proto, 10e9, Time::us(1));
  auto d = net::build_dumbbell(topo, 16, link, link);
  auto t = runner::make_transport(proto, sim, topo, Time::us(100));
  runner::FlowDriver driver(sim, *t);
  for (uint32_t i = 1; i <= 16; ++i) {
    transport::FlowSpec s;
    s.id = i;
    s.src = d.senders[i - 1];
    s.dst = d.receivers[i - 1];
    s.size_bytes = transport::kLongRunning;
    s.start_time = Time::us(50 * i);
    driver.add(s);
  }
  sim.run_until(Time::ms(40));

  SteadyWindow w;
  const auto mark = bench::AllocProbe::mark();
  sim.run_until(Time::ms(90));
  w.allocs = bench::AllocProbe::since(mark);
  w.events = sim.events().fired();
  w.pool_slots = sim.events().pool_slots();
  driver.stop_all();
  return w;
}

TEST(ZeroAllocSteadyState, ExpressPassDumbbellHotPathIsAllocationFree) {
  if (!bench::AllocProbe::enabled()) {
    GTEST_SKIP() << "alloc probe stubbed out under sanitizers";
  }
  const SteadyWindow w = run_dumbbell(runner::Protocol::kExpressPass);
  EXPECT_GT(w.events, 100000u);  // the window actually carried traffic
  EXPECT_EQ(w.allocs.allocs, 0u)
      << "steady state allocated " << w.allocs.allocs << " times ("
      << w.allocs.bytes << " bytes) across " << w.events << " events";
  EXPECT_EQ(w.allocs.frees, 0u);
}

// The window-based baselines: in-order segments skip the reassembly map,
// and each ACK's RTO re-arm reuses the slot and wheel node its cancel just
// freed, so neither allocates nor holds storage for dead timers.
TEST(ZeroAllocSteadyState, DctcpDumbbellHotPathIsAllocationFree) {
  if (!bench::AllocProbe::enabled()) {
    GTEST_SKIP() << "alloc probe stubbed out under sanitizers";
  }
  const SteadyWindow w = run_dumbbell(runner::Protocol::kDctcp);
  EXPECT_GT(w.events, 100000u);
  EXPECT_EQ(w.allocs.allocs, 0u)
      << "steady state allocated " << w.allocs.allocs << " times ("
      << w.allocs.bytes << " bytes) across " << w.events << " events";
  EXPECT_EQ(w.allocs.frees, 0u);
  // The 16 RTOs and the events in flight, not one slot per RTO re-arm of
  // the last 10 ms (8,168 slots when cancelled timers held theirs until
  // their deadline).
  EXPECT_LT(w.pool_slots, 64u);
}

// Fig 15's flow-scalability scenario: `flows` long-running ExpressPass
// flows on a 10G dumbbell, flow i from sender i to receiver i, starting at
// U(0, 5 ms) drawn from the simulator's RNG in flow order; a 20 ms warm-up,
// then a 50 ms window under the probe. The run is deterministic, so its
// work counters are exact on any hardware.
struct Fig15Counters {
  uint64_t events_fired = 0;
  uint64_t packet_hops = 0;   // tx_packets summed over every port
  uint64_t kick_events = 0;   // serializer-free service wakeups
  uint64_t retry_events = 0;  // shaper token-wait retries
  uint64_t wheel_events = 0;  // events routed through the timing wheel
  uint64_t heap_events = 0;   // events that overflowed to the far heap
};

Fig15Counters run_fig15(size_t flows, bench::AllocProbe::Counts& allocs) {
  sim::Simulator sim(29);
  net::Topology topo(sim);
  const auto link = runner::protocol_link_config(
      runner::Protocol::kExpressPass, 10e9, Time::us(1));
  auto d = net::build_dumbbell(topo, flows, link, link);
  auto t = runner::make_transport(runner::Protocol::kExpressPass, sim, topo,
                                  Time::us(100));
  runner::FlowDriver driver(sim, *t);
  for (size_t i = 0; i < flows; ++i) {
    transport::FlowSpec s;
    s.id = static_cast<uint32_t>(i + 1);
    s.src = d.senders[i];
    s.dst = d.receivers[i];
    s.size_bytes = transport::kLongRunning;
    s.start_time = Time::seconds(sim.rng().uniform(0.0, 5e-3));
    driver.add(s);
  }
  sim.run_until(Time::ms(20));
  const auto mark = bench::AllocProbe::mark();
  sim.run_until(Time::ms(70));
  allocs = bench::AllocProbe::since(mark);

  Fig15Counters c;
  c.events_fired = sim.events().fired();
  c.wheel_events = sim.events().wheel_scheduled();
  c.heap_events = sim.events().heap_scheduled();
  for (size_t n = 0; n < topo.num_nodes(); ++n) {
    net::Node& node = topo.node(static_cast<net::NodeId>(n));
    for (size_t i = 0; i < node.num_ports(); ++i) {
      c.packet_hops += node.port(i).tx_packets();
      c.kick_events += node.port(i).kick_events();
      c.retry_events += node.port(i).retry_events();
    }
  }
  driver.stop_all();
  return c;
}

// A deliberate change to the event pattern (an extra wakeup per
// transmission, a lost coalescing, events rerouted between the wheel and
// the heap) must update these values in the same change. A port that arms
// a kick on every transmission fires 1,360,720 and 4,974,194 events.
void expect_fig15(size_t flows, const Fig15Counters& want) {
  bench::AllocProbe::Counts allocs;
  const Fig15Counters got = run_fig15(flows, allocs);
  EXPECT_EQ(got.events_fired, want.events_fired);
  EXPECT_EQ(got.packet_hops, want.packet_hops);
  EXPECT_EQ(got.kick_events, want.kick_events);
  EXPECT_EQ(got.retry_events, want.retry_events);
  EXPECT_EQ(got.wheel_events, want.wheel_events);
  EXPECT_EQ(got.heap_events, want.heap_events);
  // Under sanitizers the probe is stubbed out; the counters above still
  // hold there.
  if (bench::AllocProbe::enabled()) {
    EXPECT_EQ(allocs.allocs, 0u)
        << "steady state allocated " << allocs.allocs << " times ("
        << allocs.bytes << " bytes)";
  }
}

TEST(Fig15WorkCounters, SixtyFourFlows) {
  expect_fig15(64, {927254, 490977, 57490, 53872, 927456, 0});
}

TEST(Fig15WorkCounters, TwoHundredFiftySixFlows) {
  expect_fig15(256, {3395721, 1650982, 72432, 65176, 3396514, 0});
}

}  // namespace
