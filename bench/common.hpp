// Shared helpers for the experiment benches.
//
// Every bench prints the rows/series of one paper table or figure. Benches
// default to scaled-down runs that finish quickly on one core; pass --full
// (or set XPASS_FULL=1) for paper-scale parameters. EXPERIMENTS.md records
// paper-vs-measured values from the default runs.
//
// Benches are spec-driven: each builds runner::ScenarioSpec values and runs
// them through runner::ScenarioEngine (singly or as a run_grid sweep); the
// bench file itself is only the spec plus the figure's formatter.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>

#include "exec/sweep_runner.hpp"
#include "net/topology_builders.hpp"
#include "runner/args.hpp"
#include "runner/flow_driver.hpp"
#include "runner/protocols.hpp"
#include "runner/scenario.hpp"
#include "stats/fairness.hpp"
#include "workload/generators.hpp"

namespace xpass::bench {

// The flags every bench understands, parsed through runner::Args: malformed
// values (`--jobs garbage`, `--jobs 0`) and unknown flags abort with usage
// instead of being silently ignored.
struct BenchOptions {
  bool full = false;  // --full or XPASS_FULL=1: paper-scale parameters
  size_t jobs = 0;    // --jobs N / --jobs=N; 0 = SweepRunner default
};

inline BenchOptions bench_options(int argc, char** argv) {
  runner::Args args(argc, argv);
  BenchOptions o;
  o.full = args.flag("full");
  o.jobs = args.jobs();
  args.die_on_error("usage: bench [--full] [--jobs N]\n");
  if (!o.full) {
    const char* env = std::getenv("XPASS_FULL");
    o.full = env != nullptr && env[0] == '1';
  }
  return o;
}

inline bool full_mode(int argc, char** argv) {
  return bench_options(argc, argv).full;
}

// Worker count for sweep-style benches. Results are identical for every
// value — only wall-clock changes.
inline size_t jobs_arg(int argc, char** argv) {
  return bench_options(argc, argv).jobs;
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

// One cell of the Fig-15 flow-scalability grid: long-running flows on a 10G
// dumbbell, measured over a post-warmup window.
struct ScalabilityCell {
  double util_gbps = 0;
  double fairness = 0;
  double max_q_kb = 0;
  uint64_t drops = 0;
};

inline runner::ScenarioSpec scalability_spec(runner::Protocol proto,
                                             size_t n_flows, bool full) {
  runner::ScenarioSpec s;
  s.name = "fig15/" + std::string(runner::protocol_name(proto)) + "/" +
           std::to_string(n_flows);
  s.seed = 29;
  s.topology.kind = runner::TopologyKind::kDumbbell;
  s.topology.scale = n_flows;
  s.protocol = proto;
  s.traffic.kind = runner::TrafficKind::kPairwise;
  s.traffic.flows = n_flows;
  s.traffic.start_spread_sec = 5e-3;
  s.stop = runner::StopSpec::measure_window(sim::Time::ms(full ? 50 : 20),
                                            sim::Time::ms(full ? 100 : 50));
  return s;
}

inline ScalabilityCell to_scalability_cell(const runner::ScenarioResult& r) {
  ScalabilityCell c;
  c.util_gbps = r.sum_rate_bps / 1e9;
  c.fairness = r.jain;
  c.max_q_kb = r.bottleneck_max_queue_bytes / 1e3;
  c.drops = r.data_drops;
  return c;
}

struct FlowSpecBuilder {
  uint32_t next_id = 1;
  transport::FlowSpec make(net::Host* src, net::Host* dst, uint64_t bytes,
                           sim::Time start = sim::Time::zero()) {
    transport::FlowSpec s;
    s.id = next_id++;
    s.src = src;
    s.dst = dst;
    s.size_bytes = bytes;
    s.start_time = start;
    return s;
  }
};

}  // namespace xpass::bench
