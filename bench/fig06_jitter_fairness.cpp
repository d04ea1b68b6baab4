// Fig 6a: credit-drop fairness vs host pacing jitter. Concurrent max-rate
// (naive) credit flows share one bottleneck; Jain's index is computed over
// 1ms windows of delivered goodput. Perfect pacing (j=0) locks some flows
// out of the tiny credit queue; jitter breaks the synchronization.
//
// Fig 6b / Fig 14: the host model's inter-credit gap and credit-processing
// delay distributions (the testbed substitution).
#include <algorithm>

#include "bench/common.hpp"

using namespace xpass;
using sim::Time;

namespace {

constexpr Time kWindow = Time::ms(1);

// Naive (max-rate) credit flows, started U(0, 2ms), on a 10G dumbbell; the
// run samples every 1ms window. The swept variable is the total host-side
// emission noise: the pacing jitter plus the software rate-limiter's
// release noise scale together (in the paper both stem from the same
// SoftNIC host; Fig 6b measures their combined effect).
runner::ScenarioSpec spec(double jitter, size_t n_flows) {
  runner::ScenarioSpec s;
  s.name = "fig06/" + std::to_string(jitter) + "/" + std::to_string(n_flows);
  s.seed = 7;
  s.topology.scale = n_flows;
  s.topology.host_credit_shaper_noise = jitter;
  s.xp.emplace();
  s.xp->naive = true;  // isolate drop fairness from the feedback loop
  s.xp->jitter = jitter;
  s.traffic.flows = n_flows;
  s.traffic.start_spread_sec = 2e-3;
  s.stop = runner::StopSpec::run_for(Time::ms(20));
  s.telemetry.sample_interval = kWindow;
  s.telemetry.flow_rate_series = true;
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::bench_options(argc, argv);
  bench::header("Fig 6a: jitter level vs fairness (naive credits, 1ms Jain)",
                "Fig 6a, SIGCOMM'17 (shape: j=0 unfair, fairness -> 1 with "
                "jitter; our purely-simulated hosts need the full measured "
                "NIC noise ~0.3-0.6 of the gap, paper Fig 6b)");
  const std::vector<size_t> flow_counts =
      opts.full ? std::vector<size_t>{4, 16, 64, 256, 1024}
                : std::vector<size_t>{4, 16, 64};
  const std::vector<double> jitters = {0.0,  0.01, 0.02, 0.04,
                                       0.08, 0.2,  0.4,  0.6};
  std::vector<runner::ScenarioSpec> grid;
  for (double j : jitters) {
    for (size_t n : flow_counts) grid.push_back(spec(j, n));
  }
  const auto results = runner::ScenarioEngine().run_grid(grid, opts.jobs);
  std::printf("%8s", "jitter");
  for (size_t n : flow_counts) std::printf("  n=%-6zu", n);
  std::printf("\n");
  size_t at = 0;
  for (double j : jitters) {
    std::printf("%8.2f", j);
    for (size_t n = 0; n < flow_counts.size(); ++n) {
      // Jain over the ten 1ms windows after a 10ms warmup.
      std::printf("  %-8.3f",
                  bench::mean_window_jain(results[at++], kWindow, 10, 10));
    }
    std::printf("\n");
  }

  // Fig 6b / Fig 14a companion: the host-delay model distributions.
  bench::header("Fig 6b/14: host credit-processing delay model (CDF)",
                "Fig 14a, SIGCOMM'17 (median ~0.38us, 99.99th ~6.2us)");
  sim::Rng rng(3);
  auto m = net::HostDelayModel::testbed();
  std::vector<double> xs(200000);
  for (auto& x : xs) x = m.sample(rng).to_us();
  std::sort(xs.begin(), xs.end());
  for (double p : {0.10, 0.50, 0.90, 0.99, 0.9999}) {
    std::printf("  p%-7.2f %8.2f us\n", p * 100,
                xs[static_cast<size_t>(p * (xs.size() - 1))]);
  }
  return 0;
}
