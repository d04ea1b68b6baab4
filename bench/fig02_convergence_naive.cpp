// Fig 2: convergence of a second flow joining a 10G bottleneck.
//   (a) naive credit-based: converges within ~1 RTT (paper: 25us)
//   (b) TCP Cubic: ~47ms
//   (c) DCTCP: ~70ms
// We print the time for the joining flow to first reach 40% of the
// bottleneck (i.e. ~85% of its fair share) and a short rate trace.
#include "bench/common.hpp"

using namespace xpass;
using sim::Time;

namespace {

struct Row {
  const char* name;
  const char* paper;
  runner::Protocol proto;
  Time sample;
  int n_samples;
};

// Two long flows on a 10G dumbbell; flow 2 joins at the fifth sample.
runner::ScenarioSpec spec(const Row& row) {
  runner::ScenarioSpec s;
  s.name = "fig02/" + std::string(runner::protocol_name(row.proto));
  s.seed = 5;
  s.protocol = row.proto;
  s.traffic.start_step = row.sample * 5;
  s.stop = runner::StopSpec::run_for(row.sample * row.n_samples);
  s.telemetry.sample_interval = row.sample;
  s.telemetry.flow_rate_series = true;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::bench_options(argc, argv);
  bench::header("Fig 2: convergence time of a joining flow @10G",
                "Fig 2, SIGCOMM'17");
  const Row rows[] = {
      {"naive credit-based", "~25us (one RTT)",
       runner::Protocol::kExpressPassNaive, Time::us(25), 40},
      {"TCP Cubic", "~47ms", runner::Protocol::kCubic, Time::ms(2),
       opts.full ? 100 : 50},
      {"DCTCP", "~70ms", runner::Protocol::kDctcp, Time::ms(2),
       opts.full ? 250 : 75},
  };
  std::vector<runner::ScenarioSpec> grid;
  for (const Row& row : rows) grid.push_back(spec(row));
  const auto results = runner::ScenarioEngine().run_grid(grid, opts.jobs);

  std::vector<std::vector<double>> joiner;  // flow 2's rate per sample
  for (size_t i = 0; i < grid.size(); ++i) {
    const Row& row = rows[i];
    const Time join = grid[i].traffic.start_step;
    joiner.push_back(bench::window_rates(results[i], 2, row.sample));
    double converge_us = -1;
    for (size_t k = 0; k < joiner[i].size() && converge_us < 0; ++k) {
      const Time now = row.sample * static_cast<double>(k + 1);
      if (now > join && joiner[i][k] > 4e9) converge_us = (now - join).to_us();
    }
    if (converge_us >= 0) {
      std::printf("%-22s converged in %10.1f us   [paper: %s]\n", row.name,
                  converge_us, row.paper);
    } else {
      std::printf("%-22s did not converge in the run  [paper: %s]\n",
                  row.name, row.paper);
    }
  }

  std::printf("\nJoining-flow rate trace, naive credit (Gbps):\n");
  for (size_t k = 4; k < 16 && k < joiner[0].size(); ++k) {
    std::printf("  t=%6.0fus  %5.2f\n",
                (rows[0].sample * static_cast<double>(k + 1)).to_us(),
                joiner[0][k] / 1e9);
  }
  return 0;
}
