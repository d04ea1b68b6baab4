// Fig 8: the initial-rate trade-off. (a) convergence time of a new flow
// joining an existing one, as the initial credit rate drops from max_rate
// to max_rate/32 (paper: 2 -> 14 RTTs); (b) credits wasted by a one-packet
// flow on an idle 100us-RTT network (paper: ~80 credits at init=max down to
// ~2 at max/32).
#include "bench/common.hpp"

using namespace xpass;
using sim::Time;

namespace {

constexpr Time kRtt = Time::us(100);
constexpr Time kJoin = kRtt * 20;
constexpr int kMaxRtts = 100;

runner::ScenarioSpec base(double alpha, uint64_t seed) {
  runner::ScenarioSpec s;
  s.seed = seed;
  s.topology.host_prop = Time::us(12);
  s.xp.emplace();
  s.xp->alpha_init = alpha;
  return s;
}

// (a) Flow 2 joins flow 1 at 20 RTTs and is sampled every RTT.
runner::ScenarioSpec join_spec(double alpha, uint64_t seed) {
  runner::ScenarioSpec s = base(alpha, seed);
  s.name = "fig08/join/" + std::to_string(alpha) + "/" + std::to_string(seed);
  s.traffic.start_step = kJoin;
  s.stop = runner::StopSpec::run_for(kJoin + kRtt * kMaxRtts);
  s.telemetry.sample_interval = kRtt;
  s.telemetry.flow_rate_series = true;
  return s;
}

// (b) One one-packet flow; the run outlasts its stray credits.
runner::ScenarioSpec waste_spec(double alpha) {
  runner::ScenarioSpec s = base(alpha, 16);
  s.name = "fig08/waste/" + std::to_string(alpha);
  s.topology.scale = 1;
  s.traffic.flows = 1;
  s.traffic.bytes = 1000;
  s.stop = runner::StopSpec::run_for(Time::ms(6));
  return s;
}

// RTTs after the join until flow 2 first exceeds 0.4 C (kMaxRtts if never).
int converge_rtts(const runner::ScenarioResult& r) {
  const std::vector<double> rates = bench::window_rates(r, 2, kRtt);
  const size_t joined = static_cast<size_t>(kJoin / kRtt);
  for (int k = 1; k <= kMaxRtts; ++k) {
    if (rates[joined + k - 1] > 0.4 * 10e9) return k;
  }
  return kMaxRtts;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::bench_options(argc, argv);
  bench::header("Fig 8: initial-rate trade-off (convergence vs credit waste)",
                "Fig 8, SIGCOMM'17 (paper: 2->14 RTTs and ~80->2 credits as "
                "alpha goes 1 -> 1/32)");
  const double alphas[] = {1.0, 0.5, 0.25, 0.125, 1.0 / 16, 1.0 / 32};
  const uint64_t seeds[] = {15, 115, 215, 315, 415};
  std::vector<runner::ScenarioSpec> grid;
  for (double alpha : alphas) {
    for (uint64_t seed : seeds) grid.push_back(join_spec(alpha, seed));
    grid.push_back(waste_spec(alpha));
  }
  const auto results = runner::ScenarioEngine().run_grid(grid, opts.jobs);

  std::printf("%12s %20s %22s\n", "init/max", "convergence (RTTs)",
              "1-pkt flow waste (credits)");
  size_t at = 0;
  for (double alpha : alphas) {
    double sum = 0;
    for (size_t i = 0; i < std::size(seeds); ++i) {
      sum += converge_rtts(results[at++]);
    }
    const double wasted = static_cast<double>(results[at++].credits_wasted);
    std::printf("%12.4f %20.0f %22.0f\n", alpha, sum / 5.0, wasted);
  }
  std::printf(
      "\nShape check: convergence RTTs increase and wasted credits decrease\n"
      "monotonically as the initial rate drops.\n");
  return 0;
}
