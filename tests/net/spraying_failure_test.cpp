// §7 alternatives and failure handling: packet spraying, and symmetric
// exclusion of failed links from ECMP.
#include <gtest/gtest.h>

#include "core/expresspass.hpp"
#include "net/topology_builders.hpp"
#include "runner/flow_driver.hpp"
#include "runner/protocols.hpp"

namespace {

using namespace xpass;
using namespace xpass::net;
using sim::Time;

TEST(Spraying, SpreadsPacketsAcrossAllUplinks) {
  sim::Simulator sim(1);
  Topology topo(sim);
  LinkConfig cfg;
  auto ft = build_fat_tree(topo, 4, cfg, cfg);
  for (auto* sw : topo.switches()) sw->set_packet_spraying(true);
  // One flow, cross-pod: without spraying all packets share one core path.
  for (int i = 0; i < 400; ++i) {
    ft.hosts[0]->send(
        make_data(1, ft.hosts[0]->id(), ft.hosts.back()->id(), i, 1000));
  }
  sim.run();
  // Both uplinks of host 0's edge switch carried data.
  Switch* edge = ft.edges[0];
  size_t used = 0;
  for (size_t i = 0; i < edge->num_ports(); ++i) {
    Port& p = edge->port(i);
    if (p.peer()->owner().kind() == Node::Kind::kSwitch &&
        p.tx_data_bytes() > 0) {
      ++used;
    }
  }
  EXPECT_EQ(used, 2u);
}

TEST(Spraying, ExpressPassStillCompletesDespiteReordering) {
  sim::Simulator sim(3);
  Topology topo(sim);
  const auto link = runner::protocol_link_config(
      runner::Protocol::kExpressPass, 10e9, Time::us(1));
  auto ft = build_fat_tree(topo, 4, link, link);
  for (auto* sw : topo.switches()) sw->set_packet_spraying(true);
  auto t = runner::make_transport(runner::Protocol::kExpressPass, sim, topo,
                                  Time::us(100));
  runner::FlowDriver driver(sim, *t);
  transport::FlowSpec s;
  s.id = 1;
  s.src = ft.hosts[0];
  s.dst = ft.hosts.back();
  s.size_bytes = 2'000'000;
  driver.add(s);
  ASSERT_TRUE(driver.run_to_completion(Time::sec(5)));
  EXPECT_EQ(driver.connections()[0]->delivered_bytes(), 2'000'000u);
}

TEST(Failure, DownLinkExcludedFromEcmp) {
  sim::Simulator sim(1);
  Topology topo(sim);
  LinkConfig cfg;
  auto ft = build_fat_tree(topo, 4, cfg, cfg);
  Switch* edge = ft.edges[0];
  // Find the two uplink candidates toward a cross-pod host and fail one.
  const auto& cands = edge->candidates(ft.hosts.back()->id());
  ASSERT_EQ(cands.size(), 2u);
  cands[0]->fail(LinkFailMode::kDrain);
  // Every flow now routes over the surviving uplink.
  for (FlowId f = 1; f <= 100; ++f) {
    EXPECT_EQ(edge->route(ft.hosts[0]->id(), ft.hosts.back()->id(), f),
              cands[1]);
  }
  // Unidirectional failure (reverse side down) excludes the link too.
  cands[0]->recover();
  cands[0]->peer()->fail(LinkFailMode::kDrain);
  for (FlowId f = 1; f <= 100; ++f) {
    EXPECT_EQ(edge->route(ft.hosts[0]->id(), ft.hosts.back()->id(), f),
              cands[1]);
  }
}

TEST(Failure, AllLinksDownMeansUnroutable) {
  sim::Simulator sim(1);
  Topology topo(sim);
  LinkConfig cfg;
  auto ft = build_fat_tree(topo, 4, cfg, cfg);
  Switch* edge = ft.edges[0];
  const auto& cands = edge->candidates(ft.hosts.back()->id());
  for (Port* c : cands) c->fail(LinkFailMode::kDrain);
  ft.hosts[0]->send(
      make_data(1, ft.hosts[0]->id(), ft.hosts.back()->id(), 0, 1000));
  sim.run();
  EXPECT_EQ(edge->unroutable_drops(), 1u);
}

TEST(Failure, TrafficFlowsOverSurvivingPath) {
  sim::Simulator sim(9);
  Topology topo(sim);
  const auto link = runner::protocol_link_config(
      runner::Protocol::kExpressPass, 10e9, Time::us(1));
  auto ft = build_fat_tree(topo, 4, link, link);
  // Fail one uplink of every edge switch (both directions, as the
  // symmetric-exclusion mechanism would).
  for (Switch* edge : ft.edges) {
    for (size_t i = 0; i < edge->num_ports(); ++i) {
      Port& p = edge->port(i);
      if (p.peer()->owner().kind() == Node::Kind::kSwitch) {
        p.fail(LinkFailMode::kDrain);
        p.peer()->fail(LinkFailMode::kDrain);
        break;
      }
    }
  }
  auto t = runner::make_transport(runner::Protocol::kExpressPass, sim, topo,
                                  Time::us(100));
  runner::FlowDriver driver(sim, *t);
  transport::FlowSpec s;
  s.id = 1;
  s.src = ft.hosts[0];
  s.dst = ft.hosts.back();
  s.size_bytes = 1'000'000;
  driver.add(s);
  ASSERT_TRUE(driver.run_to_completion(Time::sec(5)));
  EXPECT_EQ(topo.data_drops(), 0u);
}

}  // namespace
