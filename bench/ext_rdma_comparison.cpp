// Extension experiment: ExpressPass vs the PFC-based RDMA status quo
// (DCQCN, TIMELY) — the §1 motivation made quantitative.
//
//   (a) 16-way incast of 200KB flows under one ToR: everyone is lossless,
//       but the PFC protocols pause the whole switch while credits schedule
//       arrivals without touching innocent traffic.
//   (b) victim flow: an incast on one downlink vs a victim flow between two
//       uninvolved hosts on the same switch (PFC head-of-line blocking).
//
// The one bench that still wires its network by hand: it reads NIC PFC
// pause counts, which ScenarioResult does not carry, and its victim runs
// between two hosts a ScenarioSpec cannot name.
#include "bench/common.hpp"
#include "net/topology_builders.hpp"
#include "runner/flow_driver.hpp"
#include "workload/generators.hpp"

using namespace xpass;
using sim::Time;

namespace {

struct IncastRow {
  double p99_fct_ms;
  uint64_t drops;
  uint64_t pauses;
  double max_q_kb;
};

IncastRow incast(runner::Protocol proto) {
  sim::Simulator sim(87);
  net::Topology topo(sim);
  const auto link = runner::protocol_link_config(proto, 10e9, Time::us(1));
  auto star = net::build_star(topo, 20, link);
  auto t = runner::make_transport(proto, sim, topo, Time::us(20));
  runner::FlowDriver driver(sim, *t);
  std::vector<net::Host*> workers(star.hosts.begin() + 1, star.hosts.end());
  driver.add_all(workload::incast_flows(workers, star.hosts[0], 200'000, 16));
  driver.run_to_completion(Time::sec(10));
  IncastRow r;
  r.p99_fct_ms = driver.fcts().all().percentile(0.99) * 1e3;
  r.drops = topo.data_drops();
  r.pauses = 0;
  for (auto* h : topo.hosts()) r.pauses += h->nic().pause_events();
  r.max_q_kb = topo.max_switch_data_queue_bytes() / 1e3;
  return r;
}

double victim_goodput(runner::Protocol proto) {
  sim::Simulator sim(89);
  net::Topology topo(sim);
  const auto link = runner::protocol_link_config(proto, 10e9, Time::us(1));
  auto star = net::build_star(topo, 12, link);
  auto t = runner::make_transport(proto, sim, topo, Time::us(20));
  runner::FlowDriver driver(sim, *t);
  const std::vector<net::Host*> incast(star.hosts.begin() + 2,
                                       star.hosts.begin() + 10);
  driver.add_all(workload::incast_flows(incast, star.hosts[0],
                                        transport::kLongRunning, 8));
  transport::FlowSpec victim;
  victim.id = 9;
  victim.src = star.hosts[10];
  victim.dst = star.hosts[11];
  victim.size_bytes = transport::kLongRunning;
  driver.add(victim);
  sim.run_until(Time::ms(10));
  auto rates = driver.rates().snapshot_rates_by_flow(Time::ms(10));
  driver.stop_all();
  return rates[victim.id] / 1e9;
}

}  // namespace

int main(int argc, char** argv) {
  bench::bench_options(argc, argv);
  bench::header("Extension: ExpressPass vs PFC-based RDMA CC (DCQCN/TIMELY)",
                "the RDMA motivation of sec 1 (no paper figure)");
  std::printf("(a) 16-way incast, 200KB flows, one 10G ToR\n");
  std::printf("%-14s %14s %8s %10s %10s\n", "protocol", "p99 FCT(ms)",
              "drops", "pauses", "maxQ(KB)");
  for (auto p : {runner::Protocol::kExpressPass, runner::Protocol::kDcqcn,
                 runner::Protocol::kTimely, runner::Protocol::kDctcp}) {
    IncastRow r = incast(p);
    std::printf("%-14s %14.2f %8zu %10zu %10.1f\n",
                std::string(runner::protocol_name(p)).c_str(), r.p99_fct_ms,
                static_cast<size_t>(r.drops), static_cast<size_t>(r.pauses),
                r.max_q_kb);
  }
  std::printf(
      "\n(b) victim goodput (Gbps) while 8 hosts incast another port\n");
  for (auto p : {runner::Protocol::kExpressPass, runner::Protocol::kDcqcn,
                 runner::Protocol::kTimely}) {
    std::printf("%-14s %8.2f\n",
                std::string(runner::protocol_name(p)).c_str(),
                victim_goodput(p));
  }
  std::printf(
      "\nReading: ExpressPass and the PFC protocols are all lossless, but\n"
      "only ExpressPass is lossless *without pauses*: DCQCN/TIMELY pause\n"
      "the whole switch (HOL blocking) and collateral-damage the victim,\n"
      "while credits leave it at line rate. DCTCP (no PFC) drops instead.\n");
  return 0;
}
