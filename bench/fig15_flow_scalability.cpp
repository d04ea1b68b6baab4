// Fig 15: flow scalability on a 10G dumbbell — utilization, Jain fairness
// (100ms windows, as in §6.1), and max bottleneck queue, as the number of
// long-running flows grows from 4 to 1024, for ExpressPass, DCTCP, and RCP.
//
// Paper shape: ExpressPass ~95% utilization (credit overhead), fairness ~1
// throughout, queue ~1 pkt. DCTCP: 100% utilization but fairness collapses
// past ~64 flows (min cwnd 2) with queue growing to capacity and drops.
// RCP: good fairness, queue overflows (flows start at the advertised rate).
#include "bench/common.hpp"

using namespace xpass;
using sim::Time;

namespace {

// Long-running flows started U(0, 5ms) on a 10G dumbbell, measured over a
// post-warmup window.
runner::ScenarioSpec spec(runner::Protocol proto, size_t n_flows, bool full) {
  runner::ScenarioSpec s;
  s.name = "fig15/" + std::string(runner::protocol_name(proto)) + "/" +
           std::to_string(n_flows);
  s.seed = 29;
  s.topology.scale = n_flows;
  s.protocol = proto;
  s.traffic.flows = n_flows;
  s.traffic.start_spread_sec = 5e-3;
  s.stop = runner::StopSpec::measure_window(Time::ms(full ? 50 : 20),
                                            Time::ms(full ? 100 : 50));
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::bench_options(argc, argv);
  const bool full = opts.full;
  bench::header("Fig 15: utilization / fairness / max queue vs flow count",
                "Fig 15 b/d/f, SIGCOMM'17");
  const std::vector<size_t> counts =
      full ? std::vector<size_t>{4, 16, 64, 256, 1024}
           : std::vector<size_t>{4, 16, 64, 256};
  const std::vector<runner::Protocol> protos = {
      runner::Protocol::kExpressPass, runner::Protocol::kDctcp,
      runner::Protocol::kRcp};
  // Every (protocol, flow-count) cell is an independent simulation: compute
  // the grid in parallel, print in grid order.
  std::vector<runner::ScenarioSpec> grid;
  for (auto proto : protos) {
    for (size_t n : counts) {
      grid.push_back(spec(proto, n, full));
    }
  }
  const auto results = runner::ScenarioEngine().run_grid(grid, opts.jobs);
  size_t at = 0;
  for (auto proto : protos) {
    std::printf("\n--- %s ---\n",
                std::string(runner::protocol_name(proto)).c_str());
    std::printf("%8s %12s %10s %12s %8s\n", "flows", "goodput(G)", "Jain",
                "maxQ(KB)", "drops");
    for (size_t n : counts) {
      const runner::ScenarioResult& r = results[at++];
      std::printf("%8zu %12.2f %10.3f %12.1f %8zu\n", n,
                  r.sum_rate_bps / 1e9, r.jain,
                  r.bottleneck_max_queue_bytes / 1e3,
                  static_cast<size_t>(r.data_drops));
    }
  }
  std::printf(
      "\nShape check (paper Fig 15): ExpressPass holds ~9.5G util, Jain\n"
      "~1, ~KB-scale queue, zero drops at every flow count. DCTCP's\n"
      "fairness collapses at high counts with queue at capacity and drops;\n"
      "RCP overflows the queue when flow counts are large.\n");
  return 0;
}
