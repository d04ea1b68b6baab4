// Fig 18: sensitivity of the 99th-percentile FCT to the initial rate
// fraction alpha and initial aggressiveness w_init, under realistic
// workloads at load 0.6. Lower (alpha, w_init) helps large flows (less
// credit waste from short flows) at the cost of short-flow FCT;
// (1/16, 1/16) is the paper's sweet spot.
#include "bench/workload_runner.hpp"

using namespace xpass;

int main(int argc, char** argv) {
  const bool full = bench::bench_options(argc, argv).full;
  bench::header("Fig 18: alpha / w_init sensitivity of 99%-ile FCT",
                "Fig 18, SIGCOMM'17");
  struct Setting {
    double alpha, w;
  };
  const std::vector<Setting> settings = {
      {0.5, 0.5}, {1.0 / 16, 0.5}, {1.0 / 16, 1.0 / 16},
      {1.0 / 32, 1.0 / 16}, {1.0 / 32, 1.0 / 32}};
  const std::vector<workload::WorkloadKind> kinds =
      full ? std::vector<workload::WorkloadKind>{
                 workload::WorkloadKind::kDataMining,
                 workload::WorkloadKind::kCacheFollower,
                 workload::WorkloadKind::kWebServer}
           : std::vector<workload::WorkloadKind>{
                 workload::WorkloadKind::kWebServer};

  for (auto kind : kinds) {
    std::printf("\n### workload: %s\n",
                std::string(workload::workload_name(kind)).c_str());
    std::printf("%10s %10s %16s %16s\n", "alpha", "w_init", "p99 S-bin(ms)",
                "p99 L-bin(ms)");
    for (const auto& s : settings) {
      bench::WorkloadRunConfig cfg;
      cfg.kind = kind;
      cfg.proto = runner::Protocol::kExpressPass;
      cfg.full_scale = full;
      cfg.n_flows = full ? 10000 : 1200;
      cfg.xp_alpha = s.alpha;
      cfg.xp_w_init = s.w;
      auto r = bench::run_workload(cfg);
      const auto& sbin = r.fcts.bin(stats::SizeBin::kS);
      const auto& lbin = r.fcts.bin(stats::SizeBin::kL);
      std::printf("%10.4f %10.4f %16.3f %16.3f\n", s.alpha, s.w,
                  sbin.empty() ? 0 : sbin.percentile(0.99) * 1e3,
                  lbin.empty() ? 0 : lbin.percentile(0.99) * 1e3);
    }
  }
  std::printf(
      "\nShape check: moving from (1/2,1/2) to (1/16,1/16) improves the\n"
      "L-bin p99 while the S-bin p99 grows by less than ~2x (paper's\n"
      "sweet-spot argument, §6.3).\n");
  return 0;
}
