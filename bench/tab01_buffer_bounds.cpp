// Table 1: zero-loss buffer requirement per port class for the four
// datacenter fabrics, from the network-calculus recursion (Eq. 1).
#include "bench/common.hpp"
#include "calculus/buffer_bounds.hpp"

using namespace xpass;

namespace {

void row(const char* name, double edge_bps, double fabric_bps,
         const char* paper_down, const char* paper_up, const char* paper_core) {
  calculus::CalculusParams p;
  p.edge_rate_bps = edge_bps;
  p.fabric_rate_bps = fabric_bps;
  p.delta_host = sim::Time::ns(5100);  // testbed ∆d_host
  auto r = calculus::compute_buffer_bounds(p);
  std::printf("%-28s %10.1f %10.1f %10.1f   | %8s %8s %8s\n", name,
              r.tor_down.buffer_bytes / 1e3, r.tor_up.buffer_bytes / 1e3,
              r.core.buffer_bytes / 1e3, paper_down, paper_up, paper_core);
}

}  // namespace

int main(int argc, char** argv) {
  bench::bench_options(argc, argv);
  bench::header("Table 1: required buffer for zero data loss (KB/port)",
                "Table 1, Credit-Scheduled Delay-Bounded CC, SIGCOMM'17");
  std::printf("%-28s %10s %10s %10s   | %8s %8s %8s\n", "topology (link/core)",
              "ToR-down", "ToR-up", "Core", "[paper]", "[paper]", "[paper]");
  // The fat-tree and 3-tier Clos share per-port classes in the calculus, so
  // their rows coincide — exactly as in the paper's Table 1.
  row("32-ary fat tree (10/40G)", 10e9, 40e9, "577.3", "19.0", "131.1");
  row("32-ary fat tree (40/100G)", 40e9, 100e9, "1060", "37.2", "221.8");
  row("3-tier Clos (10/40G)", 10e9, 40e9, "577.3", "19.0", "131.1");
  row("3-tier Clos (40/100G)", 40e9, 100e9, "1060", "37.2", "221.8");
  std::printf(
      "\nShape checks: ToR-down >> Core > ToR-up per row; byte counts grow\n"
      "sub-linearly in link speed (paper: 577KB -> 1.06MB for 4x links).\n");
  return 0;
}
