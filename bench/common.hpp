// Shared helpers for the experiment benches.
//
// Every bench prints the rows/series of one paper table or figure. Benches
// default to scaled-down runs that finish quickly on one core; pass --full
// (or set XPASS_FULL=1) for paper-scale parameters. EXPERIMENTS.md records
// paper-vs-measured values from the default runs.
//
// Benches are spec-driven: each builds runner::ScenarioSpec values and runs
// them through runner::ScenarioEngine (singly or as a run_grid sweep); the
// bench file itself is only the spec plus the figure's formatter. The one
// exception is ext_rdma_comparison, which reads NIC PFC pause counters that
// no ScenarioResult carries. fig05, fig12 and tab01 are analytic and
// simulate nothing.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "runner/args.hpp"
#include "runner/protocols.hpp"
#include "runner/scenario.hpp"
#include "stats/fairness.hpp"

namespace xpass::bench {

// The flags every bench understands, parsed through runner::Args: malformed
// values (`--jobs garbage`, `--jobs 0`) and unknown flags abort with usage
// instead of being silently ignored.
struct BenchOptions {
  bool full = false;  // --full or XPASS_FULL=1: paper-scale parameters
  size_t jobs = 0;    // --jobs N / --jobs=N; 0 = SweepRunner default
};

// A bench with flags of its own queries them on `args` first.
inline BenchOptions bench_options(
    runner::Args& args,
    const char* usage = "usage: bench [--full] [--jobs N]\n") {
  BenchOptions o;
  o.full = args.flag("full");
  o.jobs = args.jobs();
  args.die_on_error(usage);
  if (!o.full) {
    const char* env = std::getenv("XPASS_FULL");
    o.full = env != nullptr && env[0] == '1';
  }
  return o;
}

inline BenchOptions bench_options(int argc, char** argv) {
  runner::Args args(argc, argv);
  return bench_options(args);
}

inline void header(const char* title, const char* paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n(reproduces %s)\n", title, paper_ref);
  std::printf("================================================================\n");
}

// Goodput fraction of the ExpressPass data ceiling (95% of line rate).
inline double data_ceiling_bps(double link_bps) {
  return link_bps * static_cast<double>(net::kMaxWireBytes) /
         static_cast<double>(net::kCreditCycleBytes);
}

// Per-window goodput (bits/sec) of flow `id` in a run whose telemetry
// sampled "flow.<id>.bytes" every `window`: element k covers the k-th
// sample interval and is (cum_k - cum_{k-1}) * 8 / window, the arithmetic
// of RateTracker's snapshots, so thresholds and Jain folds match theirs.
inline std::vector<double> window_rates(const runner::ScenarioResult& r,
                                        uint32_t id, sim::Time window) {
  const std::vector<double>& cum =
      r.recorder.series().at("flow." + std::to_string(id) + ".bytes").v;
  std::vector<double> out(cum.size());
  double prev = 0;
  for (size_t k = 0; k < cum.size(); ++k) {
    out[k] = (cum[k] - prev) * 8.0 / window.to_sec();
    prev = cum[k];
  }
  return out;
}

// Mean over windows [first, first + count) of the Jain index of every
// flow's window_rates().
inline double mean_window_jain(const runner::ScenarioResult& r,
                               sim::Time window, size_t first, size_t count) {
  std::vector<std::vector<double>> flows;
  for (uint32_t id = 1; id <= r.scheduled; ++id) {
    flows.push_back(window_rates(r, id, window));
  }
  double sum = 0;
  std::vector<double> xs(flows.size());
  for (size_t k = first; k < first + count; ++k) {
    for (size_t i = 0; i < flows.size(); ++i) xs[i] = flows[i][k];
    sum += stats::jain_index(xs);
  }
  return sum / static_cast<double>(count);
}

}  // namespace xpass::bench
