// Fuzz driver: generate scenarios, run them under the oracle suite, shrink
// what fails, and persist minimal repros.
//
// Scenario i is generated from exec::task_seed(seed, i), so any single
// failure reproduces from (seed, i) alone — and the emitted repro JSON
// removes even that dependency: it embeds the exact (shrunken) ScenarioSpec
// plus the injection under which it failed, so
//     fuzz_scenarios --repro tests/repros/<file>.json
// replays the verdict forever, independent of generator evolution.
//
// Bug injection: `inject` names a hidden mutation applied to every
// *executed* spec while the oracles keep judging the *declared* spec — the
// harness's model of "the implementation silently diverges from its spec"
// bugs (a disabled mechanism, a mis-wired constant). A healthy tree passes
// with no injection; each registered injection is caught by at least one
// oracle (pinned by tests/check/fuzzer_test.cpp and the tests/repros/
// regression cases). Each injection also names the generator domain where
// that oracle applies, and a campaign under it samples only there: a bug
// only a fault-free multi-bottleneck chain can show is not left to the few
// such specs the default mix draws.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "check/generator.hpp"
#include "check/oracles.hpp"
#include "check/shrinker.hpp"

namespace xpass::check {

struct InjectionInfo {
  std::string_view name;
  std::string_view description;
};

// Registered hidden-bug mutations (for --list-injections / validation).
std::vector<InjectionInfo> injections();

// Applies `name` to `spec` (the executed side). Returns false for an
// unknown name; "" is the identity and always succeeds.
bool apply_injection(std::string_view name, runner::ScenarioSpec& spec);

struct FuzzOptions {
  uint64_t seed = 1;
  size_t count = 50;
  GenOptions gen;
  OracleOptions oracles;
  ShrinkOptions shrink_opts;
  bool shrink = true;
  std::string inject;   // hidden mutation on every executed spec; narrows
                        // `gen` to the injection's domain
  std::string out_dir;  // repro JSON target directory ("" = don't write)
  bool verbose = false;
};

struct FuzzFailure {
  size_t index = 0;           // scenario index within the campaign
  std::string oracle;         // which property broke
  std::string details;        // the oracle's message on the minimal spec
  runner::ScenarioSpec spec;  // minimal (post-shrink) failing spec
  size_t flows_before = 0;    // pre-shrink flow count (shrink telemetry)
  std::string repro_path;     // written repro file ("" if out_dir unset)
};

struct FuzzReport {
  size_t scenarios = 0;  // scenarios generated and judged
  size_t engine_runs = 0;  // total ScenarioEngine::run calls (incl. shrink)
  std::vector<FuzzFailure> failures;
  bool clean() const { return failures.empty(); }
};

// Runs the campaign. Progress and verdicts go to `log` (may be null).
FuzzReport run_fuzz(const FuzzOptions& opts, std::FILE* log);

// Repro files: a schema-tagged document embedding the spec + injection.
inline constexpr std::string_view kReproSchema = "xpass.fuzz.repro.v1";
std::string repro_to_json(const FuzzFailure& f, uint64_t fuzz_seed,
                          const std::string& inject);

struct ReproCase {
  runner::ScenarioSpec spec;
  std::string inject;  // "" when the repro carries no injection
  std::string oracle;  // the oracle that originally failed ("" = unknown)
};
// Accepts a repro document or a bare spec document.
std::optional<ReproCase> repro_from_json(const std::string& text,
                                         std::string* err);

}  // namespace xpass::check
