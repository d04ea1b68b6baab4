// Fault-matrix acceptance tests: ExpressPass flows must survive link flaps,
// credit corruption, and partial port death — and when no faults are
// injected, the network-wide invariants must hold with zero violations.
#include <gtest/gtest.h>

#include <vector>

#include "core/expresspass.hpp"
#include "exec/sweep_runner.hpp"
#include "net/fault_injector.hpp"
#include "net/topology_builders.hpp"
#include "runner/faults.hpp"
#include "runner/flow_driver.hpp"
#include "runner/protocols.hpp"
#include "sim/fault_plan.hpp"
#include "sim/invariants.hpp"

namespace {

using namespace xpass;
using namespace xpass::net;
using sim::Time;

LinkConfig xp_link() {
  return runner::protocol_link_config(runner::Protocol::kExpressPass, 10e9,
                                      Time::us(1));
}

// Mid-transfer bottleneck flap (drop semantics: queues flushed, in-flight
// frames cut) combined with 1% credit corruption on the same link. Every
// flow must still complete — the watchdog re-requests credits after the
// outage, the cum-ack rewind recovers cut data, and corrupted credits are
// just more credit loss to the feedback loop. No hang, no abort.
TEST(FaultMatrix, FlowsSurviveFlapPlusCreditCorruption) {
  sim::Simulator sim(5);
  Topology topo(sim);
  auto d = build_dumbbell(topo, 4, xp_link(), xp_link());
  auto transport = runner::make_transport(runner::Protocol::kExpressPass, sim,
                                          topo, Time::us(100));
  runner::FlowDriver driver(sim, *transport);
  for (uint32_t i = 0; i < 4; ++i) {
    transport::FlowSpec s;
    s.id = i + 1;
    s.src = d.senders[i];
    s.dst = d.receivers[i];
    s.size_bytes = 2'000'000;
    driver.add(s);
  }

  sim::FaultPlan plan(0xfa17);
  FaultInjector inj(topo, plan);
  runner::FaultScenario sc;
  sc.flap_down = Time::ms(2);  // well into the transfers
  sc.flap_up = Time::ms(6);
  sc.fail_mode = LinkFailMode::kDrop;
  sc.errors.credit_corrupt = 0.01;
  runner::apply_fault_scenario(sc, inj, *d.left, *d.right);
  plan.arm(sim);

  sim::InvariantChecker chk(sim);
  runner::register_network_invariants(chk, topo, driver, &plan);
  chk.start(Time::us(100));

  ASSERT_TRUE(driver.run_to_completion(Time::sec(2)))
      << "completed " << driver.completed() << "/4, failed "
      << driver.failed();
  EXPECT_EQ(driver.failed(), 0u);
  chk.run_checks();
  EXPECT_EQ(chk.violations(), 0u)
      << (chk.messages().empty() ? "" : chk.messages()[0]);

  // The faults actually bit: the link flapped and credits were corrupted.
  const FaultStats t = inj.totals();
  EXPECT_EQ(t.failures, 2u);
  EXPECT_EQ(t.recoveries, 2u);
  EXPECT_GT(t.corrupted_credits, 0u);
}

// One uplink of the sender's edge switch dies permanently mid-transfer on a
// fat tree. Symmetric ECMP exclusion reroutes both credits and data over
// the survivor; the flow completes.
TEST(FaultMatrix, PortDeathReroutesOverSurvivingUplink) {
  sim::Simulator sim(9);
  Topology topo(sim);
  const auto link = xp_link();
  auto ft = build_fat_tree(topo, 4, link, link);
  auto transport = runner::make_transport(runner::Protocol::kExpressPass, sim,
                                          topo, Time::us(100));
  runner::FlowDriver driver(sim, *transport);
  transport::FlowSpec s;
  s.id = 1;
  s.src = ft.hosts[0];
  s.dst = ft.hosts.back();  // cross-pod: must use an uplink
  s.size_bytes = 2'000'000;
  driver.add(s);

  // Kill the uplink the flow actually uses (trace its path), so the test
  // exercises a reroute rather than a no-op.
  const auto path =
      topo.trace_path(ft.hosts[0]->id(), ft.hosts.back()->id(), 1);
  ASSERT_FALSE(path.empty());
  Port* used_uplink = path[1];  // [0] is the host NIC; [1] the edge uplink
  Node& edge = used_uplink->owner();
  Node& aggr = used_uplink->peer()->owner();
  ASSERT_EQ(edge.kind(), Node::Kind::kSwitch);

  sim::FaultPlan plan(1);
  FaultInjector inj(topo, plan);
  inj.schedule_death(edge, aggr, Time::ms(1), LinkFailMode::kDrop);
  plan.arm(sim);

  ASSERT_TRUE(driver.run_to_completion(Time::sec(2)));
  EXPECT_EQ(driver.failed(), 0u);
  // Traffic really moved: the dead link carried some, the survivor the rest.
  EXPECT_EQ(inj.totals().failures, 2u);
}

// The receiver's only link dies: there is no alternative path. The flow
// must abort gracefully (settling run_to_completion) instead of hanging
// until the deadline, and the abort must be attributed.
TEST(FaultMatrix, IsolatedEndpointAbortsGracefully) {
  sim::Simulator sim(3);
  Topology topo(sim);
  auto d = build_dumbbell(topo, 2, xp_link(), xp_link());
  auto transport = runner::make_transport(runner::Protocol::kExpressPass, sim,
                                          topo, Time::us(100));
  runner::FlowDriver driver(sim, *transport);
  transport::FlowSpec s;
  s.id = 1;
  s.src = d.senders[0];
  s.dst = d.receivers[0];
  s.size_bytes = 10'000'000;
  driver.add(s);

  sim::FaultPlan plan(2);
  FaultInjector inj(topo, plan);
  inj.schedule_death(*d.receivers[0], *d.right, Time::ms(1),
                     LinkFailMode::kDrop);
  plan.arm(sim);

  // Settles long before the 10s deadline: the sender exhausts its request
  // retries (~175ms of continuous silence) and fails the flow.
  EXPECT_FALSE(driver.run_to_completion(Time::sec(10)));
  EXPECT_EQ(driver.failed(), 1u);
  EXPECT_LT(sim.now(), Time::sec(1));
  const auto& conn = *driver.connections()[0];
  EXPECT_TRUE(conn.failed());
  EXPECT_FALSE(conn.fail_reason().empty());
}

// Receiver-side guard: if the sender's NIC dies right after the handshake,
// the receiver is the one pacing credits into silence; its dead-period
// detector must stop the credit flow and settle the run.
TEST(FaultMatrix, DeadSenderStopsReceiverCrediting) {
  sim::Simulator sim(4);
  Topology topo(sim);
  auto d = build_dumbbell(topo, 2, xp_link(), xp_link());
  core::ExpressPassConfig xp;
  xp.receiver_dead_periods = 50;  // 5ms of silence, to keep the test fast
  auto transport = runner::make_transport(runner::Protocol::kExpressPass, sim,
                                          topo, Time::us(100), &xp);
  runner::FlowDriver driver(sim, *transport);
  transport::FlowSpec s;
  s.id = 1;
  s.src = d.senders[0];
  s.dst = d.receivers[0];
  s.size_bytes = 10'000'000;
  driver.add(s);

  sim::FaultPlan plan(2);
  FaultInjector inj(topo, plan);
  // Drain mode: the SYN got through, credits flow back, but every data
  // packet the sender releases sits in its dead NIC forever.
  inj.schedule_death(*d.senders[0], *d.left, Time::us(500),
                     LinkFailMode::kDrain);
  plan.arm(sim);

  EXPECT_FALSE(driver.run_to_completion(Time::sec(10)));
  EXPECT_EQ(driver.failed(), 1u);
  EXPECT_LT(sim.now(), Time::sec(1));
}

// The full fault matrix — {drop, drain} flap semantics × three error
// models — swept through exec::SweepRunner the way the benches sweep
// figures: each cell is an independent Simulator, cell seeds derive from
// exec::task_seed, results reduce in grid order. Every cell must complete
// all flows with zero invariant violations, and the sweep result must not
// depend on the worker count.
TEST(FaultMatrix, ScenarioGridSurvivesUnderParallelSweep) {
  struct Cell {
    net::LinkFailMode mode;
    double credit_corrupt;
    double data_drop;
  };
  std::vector<Cell> grid;
  for (auto mode : {LinkFailMode::kDrop, LinkFailMode::kDrain}) {
    grid.push_back({mode, 0.01, 0.0});   // corrupted credits
    grid.push_back({mode, 0.0, 0.005});  // lossy data class
    grid.push_back({mode, 0.01, 0.005}); // both at once
  }

  struct CellResult {
    size_t completed = 0;
    size_t failed = 0;
    uint64_t violations = 0;
    uint64_t fault_failures = 0;
  };
  auto run_cell = [&](size_t i) {
    const Cell& c = grid[i];
    sim::Simulator sim(exec::task_seed(29, i));
    Topology topo(sim);
    auto d = build_dumbbell(topo, 4, xp_link(), xp_link());
    auto transport = runner::make_transport(runner::Protocol::kExpressPass,
                                            sim, topo, Time::us(100));
    runner::FlowDriver driver(sim, *transport);
    for (uint32_t f = 0; f < 4; ++f) {
      transport::FlowSpec s;
      s.id = f + 1;
      s.src = d.senders[f];
      s.dst = d.receivers[f];
      s.size_bytes = 1'000'000;
      driver.add(s);
    }
    sim::FaultPlan plan(exec::task_seed(0xfa17, i));
    FaultInjector inj(topo, plan);
    runner::FaultScenario sc;
    sc.flap_down = Time::ms(1);
    sc.flap_up = Time::ms(4);
    sc.fail_mode = c.mode;
    sc.errors.credit_corrupt = c.credit_corrupt;
    sc.errors.data_drop = c.data_drop;
    runner::apply_fault_scenario(sc, inj, *d.left, *d.right);
    plan.arm(sim);
    sim::InvariantChecker chk(sim);
    runner::register_network_invariants(chk, topo, driver, &plan);
    chk.start(Time::us(100));
    CellResult r;
    driver.run_to_completion(Time::sec(5));
    chk.run_checks();
    r.completed = driver.completed();
    r.failed = driver.failed();
    r.violations = chk.violations();
    r.fault_failures = inj.totals().failures;
    return r;
  };

  exec::SweepRunner pool(4);
  const auto results = pool.map(grid.size(), run_cell);
  ASSERT_EQ(results.size(), grid.size());
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].completed, 4u) << "cell " << i;
    EXPECT_EQ(results[i].failed, 0u) << "cell " << i;
    EXPECT_EQ(results[i].violations, 0u) << "cell " << i;
    EXPECT_EQ(results[i].fault_failures, 2u) << "cell " << i;  // flap bit
  }

  // Worker count must not leak into results: re-run the grid inline.
  exec::SweepRunner serial(1);
  const auto again = serial.map(grid.size(), run_cell);
  for (size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].completed, again[i].completed) << "cell " << i;
    EXPECT_EQ(results[i].violations, again[i].violations) << "cell " << i;
  }
}

// Fig-scenario control run: no faults, invariants armed (including the
// §3.1 queue bound from the calculus module's dominant ToR-down figure and
// zero data loss) — nothing may trip.
TEST(FaultMatrix, HealthyRunHasZeroViolations) {
  sim::Simulator sim(7);
  Topology topo(sim);
  auto d = build_dumbbell(topo, 8, xp_link(), xp_link());
  auto transport = runner::make_transport(runner::Protocol::kExpressPass, sim,
                                          topo, Time::us(100));
  runner::FlowDriver driver(sim, *transport);
  for (uint32_t i = 0; i < 8; ++i) {
    transport::FlowSpec s;
    s.id = i + 1;
    s.src = d.senders[i];
    s.dst = d.receivers[i];
    s.size_bytes = 1'000'000;
    s.start_time = Time::us(50) * static_cast<double>(i);
    driver.add(s);
  }

  sim::InvariantChecker chk(sim);
  runner::NetInvariantOptions opts;
  // Generous but finite: a healthy 8-flow dumbbell stays in the low tens of
  // KB (the §3.1 zero-loss argument); 100KB catches runaway growth without
  // tuning to the exact calculus figure.
  opts.data_queue_bound_bytes = 100'000;
  runner::register_network_invariants(chk, topo, driver, nullptr, opts);
  chk.start(Time::us(100));

  ASSERT_TRUE(driver.run_to_completion(Time::sec(2)));
  chk.run_checks();
  EXPECT_GT(chk.sweeps(), 10u);
  EXPECT_EQ(chk.violations(), 0u)
      << (chk.messages().empty() ? "" : chk.messages()[0]);
  EXPECT_EQ(driver.failed(), 0u);
  EXPECT_EQ(topo.data_drops(), 0u);
}

}  // namespace
