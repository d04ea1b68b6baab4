// Fig 12 / §4: steady-state behavior of the feedback control. We drive N
// analytic CreditFeedback instances against a shared bottleneck model and
// report the oscillation amplitude D(t), which must decay to
// D* = C * w_min * (1 - 1/N), and the convergence of each rate to C/N.
#include <cmath>
#include <vector>

#include "bench/common.hpp"
#include "core/feedback.hpp"

using namespace xpass;

int main(int argc, char** argv) {
  bench::bench_options(argc, argv);
  bench::header("Fig 12 / sec 4: steady-state oscillation of Algorithm 1",
                "Fig 12 + the D* bound of the stability analysis");
  const double max_rate = 10e9;
  const double c = max_rate * 1.1;
  std::printf("%6s %14s %14s %14s %12s\n", "N", "mean rate(G)", "C/N (G)",
              "osc D(t) (G)", "D* (G)");
  for (int n : {2, 4, 8, 16, 32}) {
    std::vector<core::CreditFeedback> flows;
    for (int i = 0; i < n; ++i) {
      core::FeedbackParams p;
      p.max_rate = max_rate;
      p.init_rate = max_rate * (i + 1) / (2.0 * n);  // staggered start
      flows.emplace_back(p);
    }
    double osc = 0.0, mean = 0.0;
    for (int period = 0; period < 4000; ++period) {
      double sum = 0;
      for (auto& f : flows) sum += f.rate();
      const double loss = sum > max_rate ? 1.0 - max_rate / sum : 0.0;
      for (auto& f : flows) {
        const double before = f.rate();
        f.update(loss);
        if (period >= 3900) {
          osc = std::max(osc, std::abs(f.rate() - before));
          mean += f.rate();
        }
      }
    }
    mean /= 100.0 * n;
    const double d_star = c * 0.01 * (1.0 - 1.0 / n);
    std::printf("%6d %14.3f %14.3f %14.4f %12.4f\n", n, mean / 1e9,
                c / n / 1e9, osc / 1e9, d_star / 1e9);
  }
  std::printf(
      "\nShape check: rates sit at C/N; the late-time oscillation D(t) is\n"
      "on the order of D* = C*w_min*(1-1/N) and does not blow up.\n");
  return 0;
}
