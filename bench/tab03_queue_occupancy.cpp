// Table 3: time-averaged and maximum fabric queue occupancy per workload x
// load x protocol. Paper shape: ExpressPass has sub-KB averages independent
// of load (the bound is a property of the topology); RCP pins the queue at
// capacity; DCTCP averages grow with load; DX/HULL stay sub-KB with modest
// maxima.
#include "bench/workload_runner.hpp"

using namespace xpass;

int main(int argc, char** argv) {
  const bool full = bench::bench_options(argc, argv).full;
  bench::header("Table 3: avg/max fabric queue occupancy (KB) @ 10G hosts",
                "Table 3, SIGCOMM'17");
  const std::vector<workload::WorkloadKind> kinds =
      full ? std::vector<workload::WorkloadKind>{
                 workload::WorkloadKind::kDataMining,
                 workload::WorkloadKind::kWebSearch,
                 workload::WorkloadKind::kCacheFollower,
                 workload::WorkloadKind::kWebServer}
           : std::vector<workload::WorkloadKind>{
                 workload::WorkloadKind::kWebSearch,
                 workload::WorkloadKind::kWebServer};
  const std::vector<double> loads =
      full ? std::vector<double>{0.2, 0.4, 0.6} : std::vector<double>{0.6};
  const std::vector<runner::Protocol> protos = {
      runner::Protocol::kExpressPass, runner::Protocol::kRcp,
      runner::Protocol::kDctcp, runner::Protocol::kDx,
      runner::Protocol::kHull};

  std::printf("%-14s %5s", "workload", "load");
  for (auto p : protos) {
    std::printf(" %18s", std::string(runner::protocol_name(p)).c_str());
  }
  std::printf("\n");
  for (auto kind : kinds) {
    for (double load : loads) {
      std::printf("%-14s %5.1f",
                  std::string(workload::workload_name(kind)).c_str(), load);
      for (auto proto : protos) {
        bench::WorkloadRunConfig cfg;
        cfg.kind = kind;
        cfg.proto = proto;
        cfg.load = load;
        cfg.full_scale = full;
        cfg.n_flows = full ? 10000 : 1000;
        auto r = bench::run_workload(cfg);
        std::printf(" %8.2f/%8.1f", r.avg_switch_queue_bytes / 1e3,
                    static_cast<double>(r.max_switch_queue_bytes) / 1e3);
      }
      std::printf("\n");
    }
  }
  std::printf(
      "\nCells are avg/max KB. Shape check: ExpressPass averages stay\n"
      "sub-KB and its max does not scale with load; RCP pins the max at\n"
      "queue capacity; DCTCP's average grows with load.\n");
  return 0;
}
