// xpass_sim — command-line driver for the simulator.
//
// Examples:
//   xpass_sim --topology=dumbbell --pairs=8 --protocol=expresspass
//             --flows=8 --bytes=long --duration-ms=50
//   xpass_sim --topology=clos --protocol=dctcp --workload=websearch
//             --load=0.6 --flows=2000
//   xpass_sim --topology=fattree --k=8 --protocol=expresspass
//             --incast=128 --bytes=100000 --json=out.json
//
// Prints goodput, fairness, FCT percentiles, queue statistics, and drop
// counters. All flags have defaults; both `--flag=value` and `--flag value`
// are accepted; unknown or malformed flags abort with usage. The whole CLI
// is a thin shell over runner::ScenarioEngine: flags map onto one
// runner::ScenarioSpec, and the report is formatted from the
// runner::ScenarioResult it returns.
#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "exec/campaign.hpp"
#include "exec/sweep_runner.hpp"
#include "runner/args.hpp"
#include "runner/protocols.hpp"
#include "runner/scenario.hpp"
#include "workload/flow_size_dist.hpp"

using namespace xpass;
using sim::Time;

namespace {

struct Options {
  std::string topology = "dumbbell";
  std::string protocol = "expresspass";
  std::string workload;        // empty = fixed-size flows
  size_t pairs = 4;            // dumbbell pairs / star hosts
  size_t k = 4;                // fat-tree arity
  size_t flows = 4;
  size_t incast = 0;           // >0: incast fan-in instead of pair flows
  uint64_t bytes = 1'000'000;  // 0 = long-running
  double load = 0.6;
  double rate_gbps = 10.0;
  double duration_ms = 100.0;
  uint64_t seed = runner::kDefaultSeed;
  bool spraying = false;
  // Mixed-protocol coexistence: --cross=PROTO adds a reactive cross-traffic
  // flow group beside the primary protocol's flows (ScenarioSpec
  // flow_groups; pairwise/fixed-size mode only). --cross-onoff turns the
  // cross group into on/off media-style sources.
  std::string cross;
  size_t cross_flows = 0;  // 0 = same as --flows
  bool cross_onoff = false;
  double onoff_period_ms = 5.0;
  double onoff_duty = 0.5;
  double link_jitter_us = 0.0;  // per-link propagation jitter
  // Fault injection (all target the first switch--switch link, or the
  // first link if the topology has no fabric link).
  double flap_down_ms = 0.0, flap_up_ms = 0.0;  // --flap-ms=D,U
  double kill_ms = 0.0;                         // --kill-ms=T
  net::LinkErrorConfig errors;
  uint64_t fault_seed = runner::kDefaultFaultSeed;
  bool check_invariants = false;
  // Seed replication: --runs=M repeats the scenario with per-run seeds
  // task_seed(seed, run); --jobs=N runs them on N threads. Reports print in
  // run order whatever the thread count.
  size_t runs = 1;
  size_t jobs = 0;  // 0 = XPASS_JOBS / hardware concurrency
  // --json=PATH: also emit the run's recorder (every scalar plus any series
  // probes) as JSON. With --runs=M, run i writes PATH.i.
  std::string json_path;
  // Campaign mode (any of these set routes runs through exec::run_campaign;
  // the plain path stays byte-identical when none are): --cache-dir=DIR
  // persists results to a resumable content-addressed store, --resume
  // serves verified entries instead of re-running, --timeout-ms=T leashes
  // each run's wall clock.
  std::string cache_dir;
  bool resume = false;
  double timeout_ms = 0;
};

constexpr const char* kUsage =
    "usage: xpass_sim [--topology=dumbbell|star|fattree|clos]\n"
    "  [--protocol=expresspass|naive|dctcp|rcp|hull|dx|cubic|dcqcn|timely|\n"
    "              sird|bfc|bbr]\n"
    "  [--workload=websearch|webserver|cachefollower|datamining]\n"
    "  [--pairs=N] [--k=N] [--flows=N] [--incast=N] [--bytes=N|long]\n"
    "  [--load=F] [--rate-gbps=F] [--duration-ms=F] [--seed=N]\n"
    "  [--spraying] [--runs=M] [--jobs=N] [--json=PATH]\n"
    "  coexistence (mixed-protocol flow groups; pairwise mode only):\n"
    "  [--cross=PROTO] [--cross-flows=N] [--cross-onoff]\n"
    "  [--onoff-period-ms=F] [--onoff-duty=F] [--link-jitter-us=F]\n"
    "  campaign (crash-safe batches; see EXPERIMENTS.md):\n"
    "  [--cache-dir=DIR] [--resume] [--timeout-ms=T]\n"
    "  faults (target: first fabric link):\n"
    "  [--flap-ms=DOWN,UP] [--kill-ms=T] [--data-drop=P] [--credit-drop=P]\n"
    "  [--data-corrupt=P] [--credit-corrupt=P] [--fault-seed=N]\n"
    "  [--check-invariants]\n";

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "error: %s\n", msg);
  std::fputs(kUsage, stderr);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  runner::Args args(argc, argv);
  Options o;
  if (auto v = args.str("topology")) o.topology = *v;
  if (auto v = args.str("protocol")) o.protocol = *v;
  if (auto v = args.str("workload")) o.workload = *v;
  o.pairs = args.u64("pairs", o.pairs);
  o.k = args.u64("k", o.k);
  o.flows = args.u64("flows", o.flows);
  o.incast = args.u64("incast", o.incast);
  if (auto v = args.str("bytes")) {
    if (*v == "long") {
      o.bytes = 0;
    } else {
      char* end = nullptr;
      o.bytes = std::strtoull(v->c_str(), &end, 10);
      if (end == v->c_str() || *end != '\0') {
        usage("--bytes wants a number or 'long'");
      }
    }
  }
  o.load = args.f64("load", o.load);
  o.rate_gbps = args.f64("rate-gbps", o.rate_gbps);
  o.duration_ms = args.f64("duration-ms", o.duration_ms);
  o.seed = args.u64("seed", o.seed);
  o.runs = args.runs();
  o.jobs = args.jobs();
  o.spraying = args.flag("spraying");
  if (auto v = args.str("cross")) o.cross = *v;
  o.cross_flows = args.u64("cross-flows", o.cross_flows);
  o.cross_onoff = args.flag("cross-onoff");
  o.onoff_period_ms = args.f64("onoff-period-ms", o.onoff_period_ms);
  o.onoff_duty = args.f64("onoff-duty", o.onoff_duty);
  o.link_jitter_us = args.f64("link-jitter-us", o.link_jitter_us);
  if (auto v = args.str("flap-ms")) {
    const size_t comma = v->find(',');
    const auto down = runner::parse_f64(v->substr(0, comma));
    const auto up = comma == std::string::npos
                        ? std::nullopt
                        : runner::parse_f64(v->substr(comma + 1));
    if (!down || !up) usage("--flap-ms wants DOWN,UP");
    if (*down < 0 || *up <= *down) usage("--flap-ms wants 0 <= DOWN < UP");
    o.flap_down_ms = *down;
    o.flap_up_ms = *up;
  }
  o.kill_ms = args.f64("kill-ms", 0.0);
  o.errors.data_drop = args.f64("data-drop", 0.0);
  o.errors.credit_drop = args.f64("credit-drop", 0.0);
  o.errors.data_corrupt = args.f64("data-corrupt", 0.0);
  o.errors.credit_corrupt = args.f64("credit-corrupt", 0.0);
  o.fault_seed = args.u64("fault-seed", o.fault_seed);
  o.check_invariants = args.flag("check-invariants");
  if (auto v = args.str("json")) o.json_path = *v;
  if (auto v = args.cache_dir()) o.cache_dir = *v;
  o.resume = args.resume();
  o.timeout_ms = args.timeout_ms();
  const bool help = args.flag("help");
  args.die_on_error(kUsage);
  for (const std::string& p : args.positional()) {
    if (p == "-h") {
      usage("help requested");
    }
    usage(("unexpected argument: " + p).c_str());
  }
  if (help) usage("help requested");
  return o;
}

std::optional<workload::WorkloadKind> parse_workload(const std::string& w) {
  if (w == "websearch") return workload::WorkloadKind::kWebSearch;
  if (w == "webserver") return workload::WorkloadKind::kWebServer;
  if (w == "cachefollower") return workload::WorkloadKind::kCacheFollower;
  if (w == "datamining") return workload::WorkloadKind::kDataMining;
  return std::nullopt;
}

// The flag set resolves to one declarative spec; only `seed` varies between
// the --runs replications.
runner::ScenarioSpec make_spec(const Options& o, uint64_t seed) {
  runner::ScenarioSpec s;
  s.name = "xpass_sim/" + o.topology + "/" + o.protocol;
  s.seed = seed;
  s.protocol = *runner::parse_protocol(o.protocol);

  const double rate = o.rate_gbps * 1e9;
  s.topology.host_rate_bps = rate;
  size_t n_hosts = 0;  // the poisson pool size (hosts + pairwise receivers)
  if (o.topology == "dumbbell") {
    s.topology.kind = runner::TopologyKind::kDumbbell;
    s.topology.scale = std::max(o.pairs, o.flows);
    n_hosts = 2 * s.topology.scale;
  } else if (o.topology == "star") {
    s.topology.kind = runner::TopologyKind::kStar;
    s.topology.scale = std::max<size_t>(o.pairs, 2);
    n_hosts = s.topology.scale;
  } else if (o.topology == "fattree") {
    s.topology.kind = runner::TopologyKind::kFatTree;
    s.topology.fat_tree_k = o.k;
    n_hosts = o.k * o.k * o.k / 4;
  } else {  // clos (validated in main)
    s.topology.kind = runner::TopologyKind::kClos;
    s.topology.clos = runner::clos_scale(false);
    s.topology.fabric_rate_bps = rate * 4;
    s.topology.fabric_prop = Time::us(4);
    n_hosts = s.topology.clos.pods * s.topology.clos.tor_per_pod *
              s.topology.clos.hosts_per_tor;
  }
  s.topology.packet_spraying = o.spraying;

  const uint64_t flow_bytes = o.bytes == 0 ? transport::kLongRunning : o.bytes;
  if (!o.workload.empty()) {
    s.traffic.kind = runner::TrafficKind::kPoisson;
    s.traffic.workload = *parse_workload(o.workload);
    s.traffic.load = o.load;
    s.traffic.flows = o.flows;
    // The CLI has always defined load on aggregate-host-rate / 3, clos
    // included (the engine's clos default is the §6.3 ToR-uplink base).
    s.traffic.capacity_bps = static_cast<double>(n_hosts) * rate / 3.0;
  } else if (o.incast > 0) {
    s.traffic.kind = runner::TrafficKind::kIncast;
    s.traffic.flows = o.incast;
    s.traffic.bytes = flow_bytes;
  } else {
    s.traffic.kind = runner::TrafficKind::kPairwise;
    s.traffic.flows = o.flows;
    s.traffic.bytes = flow_bytes;
    s.traffic.start_spread_sec = 1e-3;
  }

  if (o.link_jitter_us > 0) {
    s.topology.link_jitter = Time::seconds(o.link_jitter_us * 1e-6);
  }
  if (!o.cross.empty()) {
    // Two groups on the shared fabric: the primary protocol keeps the
    // pairwise traffic configured above, the cross group rides beside it
    // (validated to pairwise/fixed-size mode in main).
    runner::FlowGroupSpec primary;
    primary.protocol = s.protocol;
    primary.traffic = s.traffic;
    s.flow_groups.push_back(primary);

    runner::FlowGroupSpec cg;
    cg.protocol = *runner::parse_protocol(o.cross);
    cg.traffic = s.traffic;
    cg.traffic.flows = o.cross_flows > 0 ? o.cross_flows : o.flows;
    if (o.cross_onoff) {
      cg.traffic.kind = runner::TrafficKind::kOnOff;
      cg.traffic.on_period_sec = o.onoff_period_ms * 1e-3;
      cg.traffic.on_duty = o.onoff_duty;
    }
    s.flow_groups.push_back(cg);
  }

  s.stop = runner::StopSpec::completion(Time::seconds(o.duration_ms * 1e-3));

  s.faults.flap_down = Time::seconds(o.flap_down_ms * 1e-3);
  s.faults.flap_up = Time::seconds(o.flap_up_ms * 1e-3);
  s.faults.kill_at = Time::seconds(o.kill_ms * 1e-3);
  s.faults.errors = o.errors;
  s.fault_seed = o.fault_seed;
  s.check_invariants = o.check_invariants;
  return s;
}

// printf-style append to the report string (reports are built off-thread
// and printed by main in run order).
void appendf(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void appendf(std::string& out, const char* fmt, ...) {
  char buf[1024];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  out += buf;
}

std::string format_report(const Options& o, bool has_faults,
                          const runner::ScenarioResult& r) {
  std::string out;
  appendf(out, "xpass_sim: %s on %s, %zu flows, %.1f Gbps links, seed %llu\n",
          std::string(runner::protocol_name(
                          *runner::parse_protocol(o.protocol)))
              .c_str(),
          o.topology.c_str(), r.scheduled, o.rate_gbps,
          static_cast<unsigned long long>(r.seed));
  appendf(out, "  sim time        : %s%s\n", r.end_time.str().c_str(),
          r.all_completed ? " (all flows completed)" : " (horizon reached)");
  appendf(out, "  completed       : %zu / %zu\n", r.completed, r.scheduled);
  appendf(out, "  aggregate goodput: %.3f Gbps   (Jain fairness %.3f)\n",
          r.sum_rate_bps / 1e9, r.jain);
  if (r.fcts.completed() > 0) {
    const auto& f = r.fcts.all();
    appendf(out, "  FCT avg/p50/p99 : %.3f / %.3f / %.3f ms\n",
            f.mean() * 1e3, f.percentile(0.5) * 1e3,
            f.percentile(0.99) * 1e3);
  }
  for (size_t g = 0; g < r.groups.size(); ++g) {
    const auto& gr = r.groups[g];
    appendf(out,
            "  group %zu %-9s: %.3f Gbps (%.1f%% share), %zu/%zu done, "
            "%zu starved\n",
            g, std::string(runner::protocol_name(gr.protocol)).c_str(),
            gr.goodput_bps / 1e9, gr.goodput_share * 100, gr.completed,
            gr.scheduled, gr.starved);
  }
  appendf(out, "  max switch queue: %.1f KB\n",
          r.max_switch_queue_bytes / 1e3);
  appendf(out, "  data drops      : %llu   credit drops: %llu\n",
          static_cast<unsigned long long>(r.data_drops),
          static_cast<unsigned long long>(r.credit_drops));
  if (has_faults) {
    const net::FaultStats& t = r.fault_totals;
    appendf(out, "  faults          : %llu events fired, %llu failures, "
            "%llu recoveries, %zu flows aborted\n",
            static_cast<unsigned long long>(r.faults_fired),
            static_cast<unsigned long long>(t.failures),
            static_cast<unsigned long long>(t.recoveries), r.failed);
    appendf(out, "  injected loss   : data %llu drop / %llu corrupt / %llu "
            "cut, credit %llu drop / %llu corrupt / %llu cut\n",
            static_cast<unsigned long long>(t.injected_data_drops),
            static_cast<unsigned long long>(t.corrupted_data),
            static_cast<unsigned long long>(t.cut_data + t.flushed_data),
            static_cast<unsigned long long>(t.injected_credit_drops),
            static_cast<unsigned long long>(t.corrupted_credits),
            static_cast<unsigned long long>(t.cut_credits +
                                            t.flushed_credits));
  }
  if (o.check_invariants) {
    appendf(out, "  invariants      : %llu sweeps, %llu violations\n",
            static_cast<unsigned long long>(r.invariant_sweeps),
            static_cast<unsigned long long>(r.invariant_violations));
    for (const std::string& m : r.invariant_messages) {
      appendf(out, "    violation: %s\n", m.c_str());
    }
  }
  return out;
}

// Both JSON writers emit payload + '\n', so a cache hit's stored payload
// produces a file byte-identical to the one the original run wrote.
void write_json_payload(const std::string& path, const std::string& payload) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fwrite(payload.data(), 1, payload.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
}

void write_json(const std::string& path, const runner::ScenarioResult& r) {
  write_json_payload(path, r.recorder.to_json(r.name));
}

// The crash-safe path: every run goes through exec::run_campaign, which
// persists/serves results via the content-addressed store, quarantines
// throwing runs, and leashes hangs with the wall-clock budget.
int run_campaign_mode(const Options& o,
                      const std::vector<runner::ScenarioSpec>& grid) {
  exec::CampaignOptions copts;
  copts.cache_dir = o.cache_dir;
  copts.resume = o.resume;
  copts.timeout_ms = o.timeout_ms;
  copts.jobs = o.jobs;
  const exec::CampaignReport report = exec::run_campaign(grid, copts);

  for (size_t i = 0; i < report.tasks.size(); ++i) {
    const exec::CampaignTaskResult& t = report.tasks[i];
    if (grid.size() > 1) {
      std::printf("=== run %zu/%zu (seed %llu) ===\n", i + 1, grid.size(),
                  static_cast<unsigned long long>(grid[i].seed));
    }
    if (t.cache_hit) {
      std::printf("cached result (key %s)\n", t.key.c_str());
    } else if (t.result) {
      std::fputs(format_report(o, grid[i].faults.any(), *t.result).c_str(),
                 stdout);
      if (t.result->aborted) {
        std::printf("  aborted         : %s\n", t.result->abort_reason.c_str());
      }
    } else {
      std::printf("task failed: %s\n", t.outcome.error.c_str());
      if (!t.quarantine_path.empty()) {
        std::printf("  repro: %s\n", t.quarantine_path.c_str());
      }
    }
    if (i + 1 < report.tasks.size()) std::printf("\n");
    if (!o.json_path.empty() && !t.payload.empty()) {
      const std::string path = grid.size() == 1
                                   ? o.json_path
                                   : o.json_path + "." + std::to_string(i + 1);
      write_json_payload(path, t.payload);
    }
  }
  std::printf("campaign: %zu tasks, cache hits: %zu, ran: %zu, "
              "quarantined: %zu, timed out: %zu, over budget: %zu\n",
              report.tasks.size(), report.hits, report.ran, report.quarantined,
              report.timed_out, report.over_budget);
  return report.all_usable() ? 0 : 1;
}

int run_cli(const Options& o) {
  // Validate name-valued options once, up front.
  if (!runner::parse_protocol(o.protocol)) usage("unknown protocol");
  if (o.topology != "dumbbell" && o.topology != "star" &&
      o.topology != "fattree" && o.topology != "clos") {
    usage("unknown topology");
  }
  if (!o.workload.empty() && !parse_workload(o.workload)) {
    usage("unknown workload");
  }

  if (!o.cross.empty()) {
    if (!runner::parse_protocol(o.cross)) usage("unknown --cross protocol");
    if (!o.workload.empty() || o.incast > 0) {
      usage("--cross needs pairwise mode (no --workload / --incast)");
    }
  }

  if (o.resume && o.cache_dir.empty()) usage("--resume requires --cache-dir");
  const bool campaign_mode = !o.cache_dir.empty() || o.timeout_ms > 0;
  if (campaign_mode) {
    // Same seed schedule as the plain path: a single run uses --seed
    // itself, replications use task_seed(seed, i) — so cached entries match
    // the plain path's results spec-for-spec.
    std::vector<runner::ScenarioSpec> grid;
    if (o.runs == 1) {
      grid.push_back(make_spec(o, o.seed));
    } else {
      for (size_t i = 0; i < o.runs; ++i) {
        grid.push_back(make_spec(o, exec::task_seed(o.seed, i)));
      }
    }
    return run_campaign_mode(o, grid);
  }

  runner::ScenarioEngine engine;
  if (o.runs == 1) {
    const auto spec = make_spec(o, o.seed);
    const auto r = engine.run(spec);
    std::fputs(format_report(o, spec.faults.any(), r).c_str(), stdout);
    if (!o.json_path.empty()) write_json(o.json_path, r);
    return 0;
  }
  // Seed replication: run i uses task_seed(seed, i), so the set of reports
  // is a pure function of (options, seed) — identical for any --jobs value.
  std::vector<runner::ScenarioSpec> grid;
  for (size_t i = 0; i < o.runs; ++i) {
    grid.push_back(make_spec(o, exec::task_seed(o.seed, i)));
  }
  const auto results = engine.run_grid(grid, o.jobs);
  for (size_t i = 0; i < results.size(); ++i) {
    std::printf("=== run %zu/%zu (seed %llu) ===\n", i + 1, results.size(),
                static_cast<unsigned long long>(results[i].seed));
    std::fputs(format_report(o, grid[i].faults.any(), results[i]).c_str(),
               stdout);
    if (i + 1 < results.size()) std::printf("\n");
    if (!o.json_path.empty()) {
      write_json(o.json_path + "." + std::to_string(i + 1), results[i]);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse(argc, argv);
  // Spec validation and the engine reject unsupported option combinations
  // (e.g. a --cross protocol that cannot share the fabric) by throwing.
  try {
    return run_cli(o);
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  }
}
