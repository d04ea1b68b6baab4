// Fig 13: convergence behavior of five staggered long flows sharing one 10G
// bottleneck — per-flow throughput trace and bottleneck queue occupancy,
// ExpressPass vs DCTCP. The paper's testbed shows ExpressPass at a stable
// fair share with <= 18KB of queue while DCTCP oscillates with ~240KB peaks.
#include "bench/common.hpp"

using namespace xpass;
using sim::Time;

namespace {

void run(runner::Protocol proto, Time horizon, Time sample) {
  sim::Simulator sim(23);
  net::Topology topo(sim);
  const auto link = runner::protocol_link_config(proto, 10e9, Time::us(1));
  auto d = net::build_dumbbell(topo, 5, link, link);
  auto t = runner::make_transport(proto, sim, topo, Time::us(100));
  runner::FlowDriver driver(sim, *t);
  bench::FlowSpecBuilder fb;
  // Five flows arrive staggered, then depart in reverse order (the paper's
  // arrive-and-depart staircase compressed in time).
  const Time step = horizon / 10;
  for (uint32_t i = 0; i < 5; ++i) {
    driver.add(fb.make(d.senders[i], d.receivers[i], transport::kLongRunning,
                       step * (i + 1)));
  }

  std::printf("\n--- %s ---\n", std::string(protocol_name(proto)).c_str());
  std::printf("%10s %7s %7s %7s %7s %7s %10s\n", "t(ms)", "f1(G)", "f2(G)",
              "f3(G)", "f4(G)", "f5(G)", "queue(KB)");
  uint64_t q_max = 0;
  for (Time now = sample; now <= horizon; now += sample) {
    sim.run_until(now);
    auto rates = driver.rates().snapshot_rates_by_flow(sample);
    const uint64_t q = d.bottleneck->data_queue().stats().max_bytes;
    q_max = std::max(q_max, q);
    std::printf("%10.2f %7.2f %7.2f %7.2f %7.2f %7.2f %10.1f\n",
                now.to_ms(), rates[1] / 1e9, rates[2] / 1e9, rates[3] / 1e9,
                rates[4] / 1e9, rates[5] / 1e9,
                d.bottleneck->data_queue().bytes() / 1e3);
  }
  std::printf("max bottleneck queue: %.1f KB; data drops: %zu\n",
              q_max / 1e3, static_cast<size_t>(topo.data_drops()));
  driver.stop_all();
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::full_mode(argc, argv);
  bench::header("Fig 13: 5-flow convergence trace + queue",
                "Fig 13, SIGCOMM'17 (paper: XP max queue 18KB vs DCTCP "
                "240.7KB; XP throughput stable at fair share)");
  const Time horizon = full ? Time::ms(400) : Time::ms(100);
  const Time sample = horizon / 20;
  run(runner::Protocol::kExpressPass, horizon, sample);
  run(runner::Protocol::kDctcp, horizon, sample);
  return 0;
}
