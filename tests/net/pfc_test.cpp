// Priority flow control: pause/resume mechanics and the lossless-but-
// HOL-blocking behavior the paper contrasts credits against.
#include <gtest/gtest.h>

#include "net/topology_builders.hpp"
#include "runner/flow_driver.hpp"
#include "runner/protocols.hpp"
#include "transport/cubic.hpp"

namespace {

using namespace xpass;
using namespace xpass::net;
using sim::Time;

TEST(Pfc, PauseStopsDataButNotCredits) {
  sim::Simulator sim(1);
  Topology topo(sim);
  Host& a = topo.add_host();
  Host& b = topo.add_host();
  topo.connect(a, b, LinkConfig{});
  topo.finalize();

  a.nic().pfc_pause();
  int data = 0, credits = 0;
  b.register_flow(1, [&](Packet&& p) {
    if (p.type == PktType::kData) ++data;
    if (p.type == PktType::kCredit) ++credits;
  });
  a.send(make_data(1, a.id(), b.id(), 0, kMssBytes));
  a.send(make_control(PktType::kCredit, 1, a.id(), b.id()));
  sim.run_until(Time::ms(1));
  EXPECT_EQ(data, 0);
  EXPECT_EQ(credits, 1);

  a.nic().pfc_resume();
  sim.run_until(Time::ms(2));
  EXPECT_EQ(data, 1);
}

TEST(Pfc, PauseIsReferenceCounted) {
  sim::Simulator sim(1);
  Topology topo(sim);
  Host& a = topo.add_host();
  Host& b = topo.add_host();
  topo.connect(a, b, LinkConfig{});
  topo.finalize();
  a.nic().pfc_pause();
  a.nic().pfc_pause();
  a.nic().pfc_resume();
  EXPECT_TRUE(a.nic().data_paused());
  a.nic().pfc_resume();
  EXPECT_FALSE(a.nic().data_paused());
  a.nic().pfc_resume();  // extra resume is a no-op
  EXPECT_FALSE(a.nic().data_paused());
}

TEST(Pfc, IncastBecomesLosslessUnderPfc) {
  // DCQCN flows start at line rate; an 8-way incast overflows a plain
  // drop-tail switch, but with PFC backpressure nothing is lost — the
  // overload turns into upstream pauses instead.
  auto run = [](bool pfc) {
    sim::Simulator sim(5);
    Topology topo(sim);
    auto cfg = runner::protocol_link_config(runner::Protocol::kDcqcn, 10e9,
                                            Time::us(1));
    cfg.pfc = pfc;
    auto star = build_star(topo, 9, cfg);
    auto t = runner::make_transport(runner::Protocol::kDcqcn, sim, topo,
                                    Time::us(20));
    runner::FlowDriver driver(sim, *t);
    for (uint32_t i = 1; i <= 8; ++i) {
      transport::FlowSpec s;
      s.id = i;
      s.src = star.hosts[i];
      s.dst = star.hosts[0];
      s.size_bytes = 500'000;
      driver.add(s);
    }
    EXPECT_TRUE(driver.run_to_completion(Time::sec(10)));
    return topo.data_drops();
  };
  EXPECT_GT(run(false), 0u);
  EXPECT_EQ(run(true), 0u);
}

TEST(Pfc, HeadOfLineBlockingVictimFlow) {
  // The PFC pathology §1 alludes to: an incast congesting one downlink
  // pauses the whole switch, throttling an innocent victim flow that never
  // touches the congested port. ExpressPass's victim keeps its full rate.
  auto victim_rate = [](runner::Protocol proto) {
    sim::Simulator sim(7);
    Topology topo(sim);
    auto link = runner::protocol_link_config(proto, 10e9, Time::us(1));
    auto star = build_star(topo, 12, link);
    auto t = runner::make_transport(proto, sim, topo, Time::us(20));
    runner::FlowDriver driver(sim, *t);
    // Hosts 2..9 blast host 0 (incast); victim: host 10 -> host 11.
    uint32_t id = 1;
    for (size_t i = 2; i <= 9; ++i) {
      transport::FlowSpec s;
      s.id = id++;
      s.src = star.hosts[i];
      s.dst = star.hosts[0];
      s.size_bytes = transport::kLongRunning;
      driver.add(s);
    }
    transport::FlowSpec v;
    v.id = 99;
    v.src = star.hosts[10];
    v.dst = star.hosts[11];
    v.size_bytes = transport::kLongRunning;
    driver.add(v);
    // Measure the victim over the incast's onset, when DCQCN's line-rate
    // start floods the congested downlink and PFC pauses the whole switch.
    sim.run_until(Time::ms(10));
    auto rates = driver.rates().snapshot_rates_by_flow(Time::ms(10));
    driver.stop_all();
    return rates[99];
  };
  const double rdma_victim = victim_rate(runner::Protocol::kDcqcn);
  const double xp_victim = victim_rate(runner::Protocol::kExpressPass);
  EXPECT_GT(xp_victim / 1e9, 7.0);          // unaffected by the incast
  EXPECT_LT(rdma_victim, 0.8 * xp_victim);  // collateral damage from PFC
}

}  // namespace
