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

}  // namespace
