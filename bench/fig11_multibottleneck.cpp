// Fig 11: fairness with multiple bottlenecks. Flow 0 has a single
// bottleneck (link 1); flows 1..N cross three links. Max-min fairness gives
// everyone C/(N+1). Naive credits leave flow 0 near half the link; the
// feedback loop tracks max-min closely for small N and degrades gracefully
// once flows get less than a credit per RTT.
#include "bench/common.hpp"

using namespace xpass;
using sim::Time;

namespace {

double flow0_gbps(size_t n, bool naive) {
  runner::ScenarioSpec s;
  s.name = std::string("fig11/") + (naive ? "naive" : "feedback") + "/" +
           std::to_string(n);
  s.seed = 67;
  s.topology.kind = runner::TopologyKind::kMultiBottleneck;
  s.topology.scale = n;
  s.protocol = naive ? runner::Protocol::kExpressPassNaive
                     : runner::Protocol::kExpressPass;
  s.xp.emplace();
  s.xp->naive = naive;
  s.traffic.kind = runner::TrafficKind::kChain;
  s.stop = runner::StopSpec::measure_window(Time::ms(15), Time::ms(25));
  const auto r = runner::ScenarioEngine().run(s);
  return r.rate_of(1) / 1e9;  // flow id 1 = the single-bottleneck flow 0
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::bench_options(argc, argv).full;
  bench::header("Fig 11: flow 0 throughput in the multi-bottleneck topology",
                "Fig 11b, SIGCOMM'17");
  const std::vector<size_t> ns = full
                                     ? std::vector<size_t>{1,  4,   16,  64,
                                                           256, 1024}
                                     : std::vector<size_t>{1, 4, 16, 64};
  std::printf("%8s %12s %16s %16s\n", "N", "naive(G)", "feedback(G)",
              "max-min ideal(G)");
  for (size_t n : ns) {
    const double ideal = bench::data_ceiling_bps(10e9) / (n + 1) / 1e9;
    std::printf("%8zu %12.3f %16.3f %16.3f\n", n, flow0_gbps(n, true),
                flow0_gbps(n, false), ideal);
  }
  std::printf(
      "\nShape check: naive stays near half the link regardless of N;\n"
      "feedback tracks the max-min column closely for small N (paper: gap\n"
      "opens beyond ~4 flows; fairness deteriorates with less than one\n"
      "credit per RTT).\n");
  return 0;
}
