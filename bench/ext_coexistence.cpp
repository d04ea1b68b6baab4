// Extension: mixed-protocol coexistence grid. The paper's §4.3 leaves a
// quantitative question open: when ExpressPass shares a fabric with
// loss-based/reactive TCP, how much throughput does the minimum credit-rate
// reservation actually protect? This grid puts a long-running ExpressPass
// flow group on a dumbbell bottleneck against each reactive comparator
// (CUBIC, DCTCP, BBR), with the cross-traffic either saturating (long-running
// pairwise) or real-time-style (duty-cycled on/off bursts), and reads the
// per-group split straight out of the engine's group collectors.
//
// Shape check: the ExpressPass group's share never falls below the w_min
// floor (~5% of the credit budget -> a few percent of the wire) and no
// ExpressPass flow starves; saturating CUBIC is the worst case, on/off
// cross-traffic returns the idle half-periods to the credit schedule.
//
// --json-dir DIR additionally writes each cell's recorder JSON (the
// xpass.recorder.v1 document with the group.<g>.* scalars) for CI schema
// validation via tools/check_recorder_json.py.
#include <filesystem>

#include "bench/common.hpp"

using namespace xpass;
using sim::Time;

namespace {

struct Cell {
  runner::Protocol cross;
  bool onoff;
};

runner::ScenarioSpec coexist_spec(const Cell& c, bool full) {
  runner::ScenarioSpec s;
  s.name = "ext_coexist/" + std::string(runner::protocol_name(c.cross)) +
           (c.onoff ? "/onoff" : "/steady");
  s.seed = 17;
  s.protocol = runner::Protocol::kExpressPass;
  s.topology.kind = runner::TopologyKind::kDumbbell;
  s.topology.scale = 8;
  s.stop = runner::StopSpec::measure_window(Time::ms(full ? 30 : 10),
                                            Time::ms(full ? 100 : 30));

  runner::FlowGroupSpec xp;
  xp.protocol = runner::Protocol::kExpressPass;
  xp.traffic.kind = runner::TrafficKind::kPairwise;
  xp.traffic.bytes = transport::kLongRunning;
  xp.traffic.flows = 4;
  s.flow_groups.push_back(xp);

  runner::FlowGroupSpec cross;
  cross.protocol = c.cross;
  cross.traffic.bytes = transport::kLongRunning;
  if (c.onoff) {
    cross.traffic.kind = runner::TrafficKind::kOnOff;
    cross.traffic.flows = 4;
    cross.traffic.on_period_sec = 5e-3;
    cross.traffic.on_duty = 0.5;
  } else {
    cross.traffic.kind = runner::TrafficKind::kPairwise;
    cross.traffic.flows = 4;
  }
  s.flow_groups.push_back(cross);
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  runner::Args args(argc, argv);
  const auto json_dir = args.str("json-dir");
  const bench::BenchOptions opts = bench::bench_options(
      args, "usage: ext_coexistence [--full] [--jobs N] [--json-dir DIR]\n");

  bench::header("Ext: mixed-protocol coexistence (per-group split)",
                "extends SIGCOMM'17 §4.3 (minimum credit-rate reservation)");

  const std::vector<Cell> cells = {
      {runner::Protocol::kCubic, false}, {runner::Protocol::kCubic, true},
      {runner::Protocol::kDctcp, false}, {runner::Protocol::kDctcp, true},
      {runner::Protocol::kBbr, false},   {runner::Protocol::kBbr, true},
  };
  std::vector<runner::ScenarioSpec> grid;
  for (const Cell& c : cells) grid.push_back(coexist_spec(c, opts.full));
  const auto results = runner::ScenarioEngine().run_grid(grid, opts.jobs);

  if (json_dir) {
    std::filesystem::create_directories(*json_dir);
    for (size_t i = 0; i < results.size(); ++i) {
      std::string name = grid[i].name;
      for (char& ch : name) {
        if (ch == '/') ch = '-';
      }
      const std::string path = *json_dir + "/" + name + ".json";
      std::FILE* out = std::fopen(path.c_str(), "w");
      if (out == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return 1;
      }
      const std::string doc = results[i].recorder.to_json(grid[i].name);
      std::fwrite(doc.data(), 1, doc.size(), out);
      std::fclose(out);
    }
  }

  std::printf("%8s %8s | %10s %8s %8s | %10s %8s %8s %10s\n", "cross",
              "style", "xp(Gbps)", "xp share", "xp strv", "ct(Gbps)",
              "ct done", "ct strv", "p99(ms)");
  for (size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    if (r.groups.size() != 2) {
      std::fprintf(stderr, "%s: expected 2 result groups, got %zu\n",
                   grid[i].name.c_str(), r.groups.size());
      return 1;
    }
    const auto& xp = r.groups[0];
    const auto& ct = r.groups[1];
    std::printf("%8s %8s | %10.3f %7.1f%% %8zu | %10.3f %4zu/%zu %8zu %10.2f\n",
                std::string(runner::protocol_name(cells[i].cross)).c_str(),
                cells[i].onoff ? "onoff" : "steady", xp.goodput_bps / 1e9,
                xp.goodput_share * 100, xp.starved, ct.goodput_bps / 1e9,
                ct.completed, ct.scheduled, ct.starved,
                ct.fct_p99_sec * 1e3);
  }
  std::printf(
      "\nShape check: the ExpressPass group keeps a hard goodput floor in\n"
      "every cell (the w_min credit reservation; the coexistence oracle\n"
      "asserts >= 2%% of the bottleneck) and starves zero flows. Saturating\n"
      "CUBIC squeezes it hardest; on/off cross-traffic hands the idle\n"
      "half-periods back to the credit schedule.\n");
  return 0;
}
