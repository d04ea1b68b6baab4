// Fig 9: credit queue capacity vs utilization. N flows from different
// ingress ports converge on one egress; with a too-small credit queue,
// credit bursts arriving simultaneously from different ports are dropped
// and the data link goes idle. A capacity of ~8 credits suffices (the
// paper's recommended setting).
#include "bench/common.hpp"

using namespace xpass;
using sim::Time;

namespace {

double under_utilization(size_t credit_q, size_t n_flows) {
  // N senders behind one switch, one receiver: flows enter the switch on
  // different physical ports and their data departs through one port (the
  // credit contention is on that port's reverse direction).
  runner::ScenarioSpec s;
  s.name = "fig09/q" + std::to_string(credit_q) + "/" +
           std::to_string(n_flows);
  s.seed = 19;
  s.topology.kind = runner::TopologyKind::kStar;
  s.topology.scale = n_flows + 1;
  s.topology.credit_queue_pkts = credit_q;
  s.traffic.kind = runner::TrafficKind::kIncast;
  s.traffic.flows = n_flows;
  s.stop = runner::StopSpec::measure_window(Time::ms(10), Time::ms(20));
  const auto r = runner::ScenarioEngine().run(s);
  const double max_data = bench::data_ceiling_bps(10e9) / 8.0 * 20e-3;
  return 1.0 - static_cast<double>(r.bottleneck_tx_data_bytes) / max_data;
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::bench_options(argc, argv).full;
  bench::header("Fig 9: credit queue capacity vs under-utilization",
                "Fig 9, SIGCOMM'17 (shape: deep under-utilization for 1-2 "
                "credit buffers, near zero by ~8)");
  const std::vector<size_t> flows = full ? std::vector<size_t>{2, 8, 32}
                                         : std::vector<size_t>{2, 8, 16};
  std::printf("%10s", "creditQ");
  for (size_t n : flows) std::printf("  %6zu flows", n);
  std::printf("\n");
  for (size_t q : {1, 2, 4, 8, 16, 32}) {
    std::printf("%10zu", q);
    for (size_t n : flows) {
      std::printf("  %10.2f%%", 100.0 * under_utilization(q, n));
    }
    std::printf("\n");
  }
  return 0;
}
