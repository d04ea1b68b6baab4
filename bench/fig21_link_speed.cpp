// Fig 21: average-FCT speed-up when host links go from 10G to 40G (fabric
// 40G -> 100G), per protocol and size bin, @ load 0.6. Paper shape:
// ExpressPass gains the most (1.5-3.5x) except Web Server L where RCP's
// aggressive start wins; DCTCP ~2x; DX/HULL benefit least.
#include "bench/workload_runner.hpp"

using namespace xpass;

namespace {

std::array<double, stats::kNumBins> avg_fct(runner::Protocol proto,
                                            workload::WorkloadKind kind,
                                            double host_rate, bool full) {
  bench::WorkloadRunConfig cfg;
  cfg.kind = kind;
  cfg.proto = proto;
  cfg.host_rate_bps = host_rate;
  cfg.fabric_rate_bps = host_rate == 10e9 ? 40e9 : 100e9;
  cfg.full_scale = full;
  cfg.n_flows = full ? 10000 : 1200;
  auto r = bench::run_workload(cfg);
  std::array<double, stats::kNumBins> out{};
  for (size_t b = 0; b < stats::kNumBins; ++b) {
    const auto& s = r.fcts.bin(static_cast<stats::SizeBin>(b));
    out[b] = s.empty() ? 0.0 : s.mean();
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::bench_options(argc, argv).full;
  bench::header("Fig 21: average FCT speed-up of 40G hosts over 10G hosts",
                "Fig 21, SIGCOMM'17");
  const std::vector<workload::WorkloadKind> kinds =
      full ? std::vector<workload::WorkloadKind>{
                 workload::WorkloadKind::kWebServer,
                 workload::WorkloadKind::kWebSearch}
           : std::vector<workload::WorkloadKind>{
                 workload::WorkloadKind::kWebServer};
  const std::vector<runner::Protocol> protos = {
      runner::Protocol::kExpressPass, runner::Protocol::kRcp,
      runner::Protocol::kDctcp, runner::Protocol::kDx,
      runner::Protocol::kHull};

  for (auto kind : kinds) {
    std::printf("\n### workload: %s (speed-up = FCT@10G / FCT@40G)\n",
                std::string(workload::workload_name(kind)).c_str());
    std::printf("%-14s", "protocol");
    for (size_t b = 0; b < stats::kNumBins; ++b) {
      std::printf(" %12s",
                  std::string(stats::bin_name(static_cast<stats::SizeBin>(b)))
                      .substr(0, 12)
                      .c_str());
    }
    std::printf("\n");
    for (auto proto : protos) {
      auto slow = avg_fct(proto, kind, 10e9, full);
      auto fast = avg_fct(proto, kind, 40e9, full);
      std::printf("%-14s", std::string(runner::protocol_name(proto)).c_str());
      for (size_t b = 0; b < stats::kNumBins; ++b) {
        if (fast[b] > 0 && slow[b] > 0) {
          std::printf(" %11.2fx", slow[b] / fast[b]);
        } else {
          std::printf(" %12s", "-");
        }
      }
      std::printf("\n");
    }
  }
  std::printf(
      "\nShape check: small-flow bins speed up less (RTT-bound); the\n"
      "ExpressPass rows show the largest gains on M/L bins; DX and HULL\n"
      "gain least (least aggressive ramp).\n");
  return 0;
}
