// Fig 16: convergence time in RTTs at 10G and 100G bottlenecks, with base
// RTT 100us. ExpressPass converges in a handful of RTTs *independent of
// link speed*; DCTCP's additive increase needs hundreds of RTTs at 10G and
// thousands at 100G; RCP's explicit rate converges in a few RTTs.
#include "bench/common.hpp"

using namespace xpass;
using sim::Time;

namespace {

constexpr Time kRtt = Time::us(100);
constexpr Time kJoin = kRtt * 20;

struct RowSpec {
  const char* name;
  runner::Protocol proto;
  double alpha;
  int cap10;
  int cap100;
  const char* paper;
};

// A flow joins a loaded link at 20 RTTs; the run samples both flows every
// RTT up to `max_rtts` after the join. Links get 12us of propagation each
// way to make a ~100us RTT fabric as in the paper's simulation setup.
runner::ScenarioSpec spec(const RowSpec& row, double rate_bps, int max_rtts) {
  runner::ScenarioSpec s;
  s.name = "fig16/" + std::string(row.name) + "/" +
           std::to_string(static_cast<int>(rate_bps / 1e9)) + "G";
  s.seed = 9;
  s.topology.host_rate_bps = rate_bps;
  s.topology.host_prop = Time::us(12);
  s.protocol = row.proto;
  if (row.proto == runner::Protocol::kExpressPass) {
    s.xp.emplace();
    s.xp->alpha_init = row.alpha;
    s.xp->w_init = row.alpha >= 0.5 ? 0.5 : row.alpha;
  }
  s.traffic.start_step = kJoin;
  s.stop = runner::StopSpec::run_for(kJoin + kRtt * max_rtts);
  s.telemetry.sample_interval = kRtt;
  s.telemetry.flow_rate_series = true;
  return s;
}

// RTTs after the join until both flows hold within [0.75, 1.35]x of the
// fair share for 3 consecutive RTTs (the paper's notion of "converged" — a
// transient slow-start burst does not count); -1 if they never do.
double converge_rtts(const runner::ScenarioResult& r, double rate_bps) {
  const std::vector<double> f1 = bench::window_rates(r, 1, kRtt);
  const std::vector<double> f2 = bench::window_rates(r, 2, kRtt);
  const double fair = 0.475 * rate_bps;  // data ceiling / 2
  const auto near_fair = [fair](double x) {
    return x > 0.75 * fair && x < 1.35 * fair;
  };
  const size_t joined = static_cast<size_t>(kJoin / kRtt);
  int streak = 0;
  for (size_t k = joined; k < f1.size(); ++k) {
    streak = near_fair(f1[k]) && near_fair(f2[k]) ? streak + 1 : 0;
    if (streak >= 3) return static_cast<double>(k - joined) - 1;
  }
  return -1;
}

// The RTT count, or ">cap" for a run that never converged.
std::string rtts_cell(double rtts, int cap) {
  char b[32];
  if (rtts < 0) {
    std::snprintf(b, sizeof b, ">%d", cap);
  } else {
    std::snprintf(b, sizeof b, "%.0f", rtts);
  }
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::bench_options(argc, argv);
  bench::header("Fig 16: convergence time in RTTs (RTT=100us)",
                "Fig 16, SIGCOMM'17");
  std::printf("%-28s %10s %10s\n", "protocol", "@10G", "@100G");
  const std::vector<RowSpec> rows = {
      {"ExpressPass (a=1/2)", runner::Protocol::kExpressPass, 0.5, 40, 40,
       "3 RTTs @10G and @100G"},
      {"ExpressPass (a=1/16)", runner::Protocol::kExpressPass, 1.0 / 16, 60,
       60, "6 RTTs @10G and @100G"},
      {"RCP", runner::Protocol::kRcp, 0, 40, 40, "3 RTTs"},
      {"DCTCP", runner::Protocol::kDctcp, 0, opts.full ? 1000 : 600,
       opts.full ? 6000 : 1200, "260 RTTs @10G, 2350 @100G"},
  };
  // Each (row, link speed) pair is an independent simulation; the DCTCP
  // 100G run dominates serial wall-clock, so fan the grid out.
  std::vector<runner::ScenarioSpec> grid;
  for (const RowSpec& row : rows) {
    grid.push_back(spec(row, 10e9, row.cap10));
    grid.push_back(spec(row, 100e9, row.cap100));
  }
  const auto results = runner::ScenarioEngine().run_grid(grid, opts.jobs);
  for (size_t r = 0; r < rows.size(); ++r) {
    std::printf(
        "%-28s %10s %10s   [paper: %s]\n", rows[r].name,
        rtts_cell(converge_rtts(results[2 * r], 10e9), rows[r].cap10).c_str(),
        rtts_cell(converge_rtts(results[2 * r + 1], 100e9), rows[r].cap100)
            .c_str(),
        rows[r].paper);
  }
  std::printf(
      "\nShape check: ExpressPass/RCP converge in a few RTTs at both\n"
      "speeds; DCTCP needs O(BDP) RTTs and degrades ~10x from 10G->100G.\n");
  return 0;
}
