// Fig 19: average and 99th-percentile FCT by flow-size bin under realistic
// workloads at load 0.6, for ExpressPass, RCP, DCTCP, DX, and HULL on the
// oversubscribed Clos fabric — extended into the three-way proactive
// shootout with SIRD (demand-informed grants) and BFC (per-hop per-flow
// backpressure, no proactive admission at all).
//
// Paper shape: ExpressPass wins on S and M bins across workloads (1.3-5.1x
// faster average than DCTCP, more at the 99th); DCTCP/RCP win on L/XL
// (ExpressPass trades utilization and wastes credits on short flows,
// especially for Web Server's small average size).
#include "bench/workload_runner.hpp"

using namespace xpass;

int main(int argc, char** argv) {
  const bench::BenchOptions opts = bench::bench_options(argc, argv);
  const bool full = opts.full;
  bench::header("Fig 19: FCT by size bin, realistic workloads @ load 0.6",
                "Fig 19, SIGCOMM'17");
  const std::vector<workload::WorkloadKind> kinds =
      full ? std::vector<workload::WorkloadKind>{
                 workload::WorkloadKind::kDataMining,
                 workload::WorkloadKind::kWebSearch,
                 workload::WorkloadKind::kCacheFollower,
                 workload::WorkloadKind::kWebServer}
           : std::vector<workload::WorkloadKind>{
                 workload::WorkloadKind::kWebServer,
                 workload::WorkloadKind::kCacheFollower};
  const std::vector<runner::Protocol> protos = {
      runner::Protocol::kExpressPass, runner::Protocol::kSird,
      runner::Protocol::kBfc,         runner::Protocol::kRcp,
      runner::Protocol::kDctcp,       runner::Protocol::kDx,
      runner::Protocol::kHull};

  // The (workload, protocol) grid is embarrassingly parallel: each cell
  // builds its own fabric and flow schedule. Compute all cells up front,
  // then print in grid order.
  std::vector<runner::ScenarioSpec> grid;
  for (auto kind : kinds) {
    for (auto proto : protos) {
      bench::WorkloadRunConfig cfg;
      cfg.kind = kind;
      cfg.proto = proto;
      cfg.full_scale = full;
      cfg.n_flows = full ? 20000 : 1200;
      grid.push_back(bench::workload_spec(cfg));
    }
  }
  const auto results = runner::ScenarioEngine().run_grid(
      grid, opts.jobs);

  size_t at = 0;
  for (auto kind : kinds) {
    std::printf("\n### workload: %s\n",
                std::string(workload::workload_name(kind)).c_str());
    std::printf("%-14s %10s", "protocol", "done");
    for (size_t b = 0; b < stats::kNumBins; ++b) {
      std::printf("  %11s avg/p99(ms)",
                  std::string(stats::bin_name(static_cast<stats::SizeBin>(b)))
                      .substr(0, 11)
                      .c_str());
    }
    std::printf("\n");
    for (auto proto : protos) {
      const auto& r = results[at++];
      std::printf("%-14s %6zu/%zu",
                  std::string(runner::protocol_name(proto)).c_str(),
                  r.completed, r.scheduled);
      for (size_t b = 0; b < stats::kNumBins; ++b) {
        const auto& s = r.fcts.bin(static_cast<stats::SizeBin>(b));
        if (s.empty()) {
          std::printf("  %22s", "-");
        } else {
          std::printf("  %10.3f /%9.3f", s.mean() * 1e3,
                      s.percentile(0.99) * 1e3);
        }
      }
      std::printf("\n");
    }
  }
  std::printf(
      "\nShape check: ExpressPass has the smallest S/M-bin FCTs (avg and\n"
      "p99); reactive protocols catch up or win on L/XL, most visibly for\n"
      "Web Server where credit waste is largest.\n");
  return 0;
}
