// One timed rep of a benchmark workload, as a user runs it.
//
//   xpass_benchmark --out DIR --seed N SPEC...
//
// One SPEC runs through runner::ScenarioEngine; several run as a campaign
// through exec::run_campaign with kCampaignJobs workers and a fresh store
// under DIR/cache, followed by a warm resume pass over the same store.
// Either way run_s is host seconds from reading the spec JSON to the last
// recorder JSON closed on disk (DIR/<spec file name>). setup_s is the
// minimum over repeated loops of the same specs run with
// stop = run_for(0): parse, build, flow scheduling and teardown without a
// simulated event. The last stdout line is one JSON object that
// benchmark/run.py reads.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_io.hpp"
#include "check/json.hpp"
#include "exec/campaign.hpp"

namespace {

using namespace xpass;
using benchmark::now_sec;

// A setup takes 0.4 to 4 ms. Loop at least 20 times and for at least
// 0.1 s: the minimum over a tenth of a second is steadier on a noisy host
// than the minimum over a few milliseconds.
constexpr size_t kSetupLoops = 20;
constexpr double kSetupMinSec = 0.1;

struct Options {
  std::string out;
  uint64_t seed = 0;
  bool have_seed = false;
  std::vector<std::string> specs;
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(a + " needs a value");
      return argv[++i];
    };
    if (a == "--out") {
      o.out = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
      o.have_seed = true;
    } else if (a.rfind("--", 0) == 0) {
      throw std::runtime_error("unknown flag " + a);
    } else {
      o.specs.push_back(a);
    }
  }
  if (o.out.empty() || !o.have_seed || o.specs.empty()) {
    throw std::runtime_error(
        "usage: xpass_benchmark --out DIR --seed N SPEC...");
  }
  return o;
}

std::vector<runner::ScenarioSpec> load_specs(const Options& o) {
  std::vector<runner::ScenarioSpec> specs;
  for (size_t i = 0; i < o.specs.size(); ++i) {
    specs.push_back(benchmark::parse_spec(
        benchmark::read_file(o.specs[i]), o.specs[i],
        benchmark::spec_seed(o.seed, i, o.specs.size())));
  }
  return specs;
}

// The timed section for a single spec: engine run plus recorder file.
void run_single(const Options& o) {
  const runner::ScenarioSpec spec = load_specs(o).front();
  const runner::ScenarioResult res = runner::ScenarioEngine{}.run(spec);
  benchmark::write_file(o.out + "/" + benchmark::output_name(o.specs[0]),
                        res.recorder.to_json(res.name));
}

// Minimum host seconds to set up and tear down every spec once.
double setup_seconds(const Options& o) {
  std::vector<std::string> texts;
  for (const std::string& path : o.specs) {
    texts.push_back(benchmark::read_file(path));
  }
  double best = 1e300;
  const double start = now_sec();
  for (size_t loop = 0; loop < kSetupLoops || now_sec() - start < kSetupMinSec;
       ++loop) {
    const double t0 = now_sec();
    for (size_t i = 0; i < texts.size(); ++i) {
      runner::ScenarioSpec spec = benchmark::parse_spec(
          texts[i], o.specs[i],
          benchmark::spec_seed(o.seed, i, texts.size()));
      spec.stop = runner::StopSpec::run_for(sim::Time::zero());
      const runner::ScenarioResult res = runner::ScenarioEngine{}.run(spec);
      if (res.scheduled == 0) throw std::runtime_error("setup ran no flows");
    }
    best = std::min(best, now_sec() - t0);
  }
  return best;
}

// Peak resident set of this program image. getrusage's ru_maxrss would
// also carry the launching process's peak across fork and exec, so read
// the kernel's per-image high-water mark instead.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

int run(const Options& o) {
  std::filesystem::create_directories(o.out);
  check::Json doc = check::Json::object();

  double run_s = 0;
  if (o.specs.size() == 1) {
    const double t0 = now_sec();
    run_single(o);
    run_s = now_sec() - t0;
  } else {
    std::filesystem::remove_all(o.out + "/cache");
    const double t0 = now_sec();
    const std::vector<runner::ScenarioSpec> specs = load_specs(o);
    const exec::CampaignOptions copts = benchmark::campaign_options(o.out);
    const exec::CampaignReport cold = exec::run_campaign(specs, copts);
    for (size_t i = 0; i < specs.size(); ++i) {
      benchmark::write_file(o.out + "/" + benchmark::output_name(o.specs[i]),
                            cold.tasks[i].payload);
    }
    run_s = now_sec() - t0;
    const exec::CampaignReport warm = exec::run_campaign(specs, copts);
    doc.set("campaign", benchmark::campaign_check(cold, warm));
  }

  doc.set("run_s", check::Json::number(run_s));
  doc.set("setup_s", check::Json::number(setup_seconds(o)));
  doc.set("peak_rss_mb", check::Json::number(peak_rss_mb()));
  std::printf("%s\n", doc.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xpass_benchmark: %s\n", e.what());
    return 1;
  }
}
