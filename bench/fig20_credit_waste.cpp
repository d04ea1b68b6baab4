// Fig 20: credit waste ratio by workload and link speed, for alpha = 1/2
// and 1/16 @ load 0.6. Waste grows as the average flow size shrinks (Web
// Server worst) and with the BDP (40G worse than 10G); alpha=1/16 cuts it
// substantially (paper: 60% -> 31% at 40G Web Server).
#include "bench/workload_runner.hpp"

using namespace xpass;

int main(int argc, char** argv) {
  const bool full = bench::bench_options(argc, argv).full;
  bench::header("Fig 20: credit waste ratio @ load 0.6",
                "Fig 20, SIGCOMM'17");
  const std::vector<workload::WorkloadKind> kinds =
      full ? std::vector<workload::WorkloadKind>{
                 workload::WorkloadKind::kDataMining,
                 workload::WorkloadKind::kWebSearch,
                 workload::WorkloadKind::kCacheFollower,
                 workload::WorkloadKind::kWebServer}
           : std::vector<workload::WorkloadKind>{
                 workload::WorkloadKind::kWebSearch,
                 workload::WorkloadKind::kWebServer};

  std::printf("%-16s %14s %14s %14s %14s\n", "workload", "10G a=1/2",
              "10G a=1/16", "40G a=1/2", "40G a=1/16");
  // The 10G a=1/16 cell doubles as the ExpressPass column of the shootout
  // table below (identical config) — cache it instead of re-running.
  std::vector<double> xp_waste_10g;
  for (auto kind : kinds) {
    std::printf("%-16s", std::string(workload::workload_name(kind)).c_str());
    for (double host_rate : {10e9, 40e9}) {
      for (double alpha : {0.5, 1.0 / 16}) {
        bench::WorkloadRunConfig cfg;
        cfg.kind = kind;
        cfg.proto = runner::Protocol::kExpressPass;
        cfg.host_rate_bps = host_rate;
        cfg.fabric_rate_bps = host_rate == 10e9 ? 40e9 : 100e9;
        cfg.full_scale = full;
        cfg.n_flows = full ? 10000 : 1000;
        cfg.xp_alpha = alpha;
        cfg.xp_w_init = alpha;
        auto r = bench::run_workload(cfg);
        if (host_rate == 10e9 && alpha != 0.5) {
          xp_waste_10g.push_back(r.credit_waste_ratio);
        }
        std::printf(" %13.1f%%", 100.0 * r.credit_waste_ratio);
      }
    }
    std::printf("\n");
  }
  std::printf(
      "\nShape check (paper Fig 20): waste grows toward the small-flow\n"
      "workloads (left to right: DataMining 3-4%% ... WebServer 19-60%%),\n"
      "is higher at 40G than 10G, and alpha=1/16 roughly halves it.\n");

  // Three-way proactive shootout @ 10G: how much permission-packet
  // overcommit each scheme pays on the same workloads. ExpressPass credits
  // blindly (waste = credits answered with nothing); SIRD grants against
  // sender-advertised demand (waste collapses to grants in flight past the
  // tail); BFC issues no permission packets at all (identically zero).
  // Each protocol is normalized by its own denominator
  // (xp.credit_waste_ratio vs proactive.waste_ratio).
  std::printf("\n### proactive shootout: permission waste @ 10G, a=1/16\n");
  std::printf("%-16s %14s %14s %14s\n", "workload", "ExpressPass", "SIRD",
              "BFC");
  for (size_t k = 0; k < kinds.size(); ++k) {
    std::printf("%-16s",
                std::string(workload::workload_name(kinds[k])).c_str());
    std::printf(" %13.1f%%", 100.0 * xp_waste_10g[k]);
    for (auto proto :
         {runner::Protocol::kSird, runner::Protocol::kBfc}) {
      bench::WorkloadRunConfig cfg;
      cfg.kind = kinds[k];
      cfg.proto = proto;
      cfg.full_scale = full;
      cfg.n_flows = full ? 10000 : 1000;
      auto r = bench::run_workload(cfg);
      std::printf(" %13.1f%%", 100.0 * r.credit_waste_ratio);
    }
    std::printf("\n");
  }
  std::printf(
      "\nShape check: SIRD's demand-informed waste is a small fraction of\n"
      "ExpressPass's blind-crediting waste on every workload; BFC, with no\n"
      "proactive admission, is identically zero.\n");
  return 0;
}
