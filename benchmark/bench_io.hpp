// File, spec and campaign helpers shared by the timed and the traced
// benchmark binaries. Errors throw std::runtime_error; both mains turn that into a
// non-zero exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

#include "check/json.hpp"
#include "check/spec_json.hpp"
#include "exec/campaign.hpp"
#include "exec/sweep_runner.hpp"
#include "runner/scenario.hpp"

namespace xpass::benchmark {

// Workers of a campaign workload. The load comes from one process with at
// most 2 threads, which leaves half of a 4-core host to everything else.
constexpr size_t kCampaignJobs = 2;

inline double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream s;
  s << in.rdbuf();
  return s.str();
}

inline void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  out.close();
  if (!out) throw std::runtime_error("cannot write " + path);
}

// Seed of spec `index` out of `count`. The workload seed is the benchmark's
// input, so the same seed always yields the same scenarios. A campaign
// gives each spec its own stream: independent cells make the campaign's
// total work vary less from seed to seed than cells sharing one flow set.
inline uint64_t spec_seed(uint64_t seed, size_t index, size_t count) {
  return count == 1 ? seed : exec::task_seed(seed, index);
}

// Parses a spec document and replaces its seed.
inline runner::ScenarioSpec parse_spec(const std::string& text,
                                       const std::string& path,
                                       uint64_t seed) {
  std::string err;
  std::optional<runner::ScenarioSpec> spec = check::spec_from_json(text, &err);
  if (!spec) throw std::runtime_error(path + ": " + err);
  spec->seed = seed;
  return *spec;
}

// File name for a spec's recorder output: its path's last component.
inline std::string output_name(const std::string& spec_path) {
  const size_t slash = spec_path.find_last_of('/');
  return slash == std::string::npos ? spec_path : spec_path.substr(slash + 1);
}

// Options of a campaign pass over a store under `out`: the cold pass fills
// it and the warm pass resumes from it.
inline exec::CampaignOptions campaign_options(const std::string& out) {
  exec::CampaignOptions o;
  o.cache_dir = out + "/cache";
  o.resume = true;
  o.jobs = kCampaignJobs;
  return o;
}

// What benchmark/run.py checks of a campaign: the cold pass ran every spec
// usably, and the warm pass served each one from the store unchanged.
inline check::Json campaign_check(const exec::CampaignReport& cold,
                                  const exec::CampaignReport& warm) {
  bool identical = warm.tasks.size() == cold.tasks.size();
  for (size_t i = 0; identical && i < cold.tasks.size(); ++i) {
    identical = warm.tasks[i].payload == cold.tasks[i].payload;
  }
  check::Json c = check::Json::object();
  c.set("cold_ran", check::Json::u64(cold.ran));
  c.set("cold_usable", check::Json::boolean(cold.all_usable()));
  c.set("warm_hits", check::Json::u64(warm.hits));
  c.set("warm_identical", check::Json::boolean(identical));
  return c;
}

}  // namespace xpass::benchmark
