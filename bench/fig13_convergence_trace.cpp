// Fig 13: convergence behavior of five staggered long flows sharing one 10G
// bottleneck — per-flow throughput trace and bottleneck queue occupancy,
// ExpressPass vs DCTCP. The paper's testbed shows ExpressPass at a stable
// fair share with <= 18KB of queue while DCTCP oscillates with ~240KB peaks.
#include "bench/common.hpp"

using namespace xpass;
using sim::Time;

namespace {

// Five flows join one every horizon/10 and run to the horizon (the arrival
// half of the paper's arrive-and-depart staircase, compressed in time),
// sampled every horizon/20.
runner::ScenarioSpec spec(runner::Protocol proto, Time horizon) {
  runner::ScenarioSpec s;
  s.name = "fig13/" + std::string(runner::protocol_name(proto));
  s.seed = 23;
  s.topology.scale = 5;
  s.protocol = proto;
  s.traffic.flows = 5;
  s.traffic.start_offset = horizon / 10;
  s.traffic.start_step = horizon / 10;
  s.stop = runner::StopSpec::run_for(horizon);
  s.telemetry.sample_interval = horizon / 20;
  s.telemetry.flow_rate_series = true;
  s.telemetry.bottleneck_queue_series = true;
  return s;
}

void print(const runner::ScenarioSpec& s, const runner::ScenarioResult& r) {
  const Time sample = s.telemetry.sample_interval;
  std::vector<std::vector<double>> rates;
  for (uint32_t id = 1; id <= 5; ++id) {
    rates.push_back(bench::window_rates(r, id, sample));
  }
  const std::vector<double>& queue =
      r.recorder.series().at("queue.bottleneck.bytes").v;
  std::printf("\n--- %s ---\n",
              std::string(runner::protocol_name(s.protocol)).c_str());
  std::printf("%10s %7s %7s %7s %7s %7s %10s\n", "t(ms)", "f1(G)", "f2(G)",
              "f3(G)", "f4(G)", "f5(G)", "queue(KB)");
  for (size_t k = 0; k < queue.size(); ++k) {
    std::printf("%10.2f %7.2f %7.2f %7.2f %7.2f %7.2f %10.1f\n",
                (sample * static_cast<double>(k + 1)).to_ms(),
                rates[0][k] / 1e9, rates[1][k] / 1e9, rates[2][k] / 1e9,
                rates[3][k] / 1e9, rates[4][k] / 1e9, queue[k] / 1e3);
  }
  std::printf("max bottleneck queue: %.1f KB; data drops: %zu\n",
              r.bottleneck_max_queue_bytes / 1e3,
              static_cast<size_t>(r.data_drops));
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::bench_options(argc, argv);
  bench::header("Fig 13: 5-flow convergence trace + queue",
                "Fig 13, SIGCOMM'17 (paper: XP max queue 18KB vs DCTCP "
                "240.7KB; XP throughput stable at fair share)");
  const Time horizon = opts.full ? Time::ms(400) : Time::ms(100);
  const std::vector<runner::ScenarioSpec> grid = {
      spec(runner::Protocol::kExpressPass, horizon),
      spec(runner::Protocol::kDctcp, horizon)};
  const auto results = runner::ScenarioEngine().run_grid(grid, opts.jobs);
  for (size_t i = 0; i < grid.size(); ++i) print(grid[i], results[i]);
  return 0;
}
