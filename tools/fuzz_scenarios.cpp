// fuzz_scenarios: randomized property-based validation of the simulator.
//
// Default mode generates --count scenarios from --seed, runs each through
// ScenarioEngine, and judges it with the check::OracleSuite (paper
// properties, metamorphic relations, differential references). Failures are
// greedily shrunk and written as self-contained repro JSON under --out.
//
//   fuzz_scenarios --seed 1 --count 50 --out tests/repros
//   fuzz_scenarios --inject no-jitter --count 20        # must find the bug
//   fuzz_scenarios --repro tests/repros/credit_queue_bound.json
//
// Exit codes: 0 all oracles passed, 2 usage error (a bad flag, or a repro
// whose spec the engine rejects), 3 an oracle failed.
// Repro regression tests assert either direction: healthy-tree repros of
// injected bugs expect 0 (the bug is absent), while --expect-fail pins that
// re-applying the embedded injection still trips the embedded oracle.
#include <cstdio>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>

#include "check/fuzzer.hpp"
#include "check/spec_json.hpp"
#include "runner/args.hpp"
#include "runner/protocols.hpp"
#include "runner/scenario.hpp"

namespace {

constexpr const char* kUsage =
    "usage: fuzz_scenarios [options]\n"
    "  --seed S            campaign seed (default 1)\n"
    "  --count N           scenarios to generate (default 50)\n"
    "  --out DIR           write failing repro JSON files here\n"
    "  --inject NAME       apply a hidden bug to every executed scenario\n"
    "  --protocol NAME     restrict generation to one protocol\n"
    "  --max-flows N       generator flow-count ceiling (default 16)\n"
    "  --mixed             force mixed-protocol coexistence scenarios\n"
    "  --no-faults         generate fault-free scenarios only\n"
    "  --no-shrink         keep failing specs unshrunk\n"
    "  --no-metamorphic    skip metamorphic oracles (faster)\n"
    "  --no-differential   skip differential oracles\n"
    "  --repro FILE        replay one repro/spec JSON instead of fuzzing\n"
    "  --expect-fail       with --repro: exit 0 iff the oracle still fails\n"
    "  --list-oracles      print oracle names and exit\n"
    "  --list-injections   print injection names and exit\n"
    "  --verbose           log passing scenarios too\n";

int run_repro(const std::string& path, bool expect_fail, bool verbose) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    std::fprintf(stderr, "fuzz_scenarios: cannot open %s\n", path.c_str());
    return 2;
  }
  std::string text;
  char buf[4096];
  for (size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;) {
    text.append(buf, n);
  }
  std::fclose(f);

  std::string err;
  auto repro = xpass::check::repro_from_json(text, &err);
  if (!repro) {
    std::fprintf(stderr, "fuzz_scenarios: bad repro %s: %s\n", path.c_str(),
                 err.c_str());
    return 2;
  }
  if (!repro->inject.empty()) {
    std::fprintf(stderr, "repro injection: %s\n", repro->inject.c_str());
  }

  xpass::runner::ScenarioEngine engine;
  size_t runs = 0;
  const xpass::check::RunFn run =
      [&](const xpass::runner::ScenarioSpec& declared) {
        xpass::runner::ScenarioSpec executed = declared;
        xpass::check::apply_injection(repro->inject, executed);
        ++runs;
        return engine.run(executed);
      };

  const xpass::check::OracleSuite suite{{}};
  std::vector<xpass::check::OracleFinding> findings;
  // The engine rejects specs no network can run (e.g. a protocol that
  // cannot join a mixed fabric) by throwing: a usage error, not a crash.
  try {
    if (!repro->oracle.empty()) {
      // Pinned oracle: judge exactly the property the repro captured.
      auto one = suite.evaluate_one(repro->oracle, repro->spec, run);
      if (!one) {
        std::fprintf(stderr,
                     "fuzz_scenarios: oracle %s does not apply to this spec\n",
                     repro->oracle.c_str());
        return 2;
      }
      findings.push_back(*one);
    } else {
      findings = suite.evaluate(repro->spec, run);
    }
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "fuzz_scenarios: %s: %s\n", path.c_str(), e.what());
    return 2;
  }

  bool any_fail = false;
  for (const auto& fi : findings) {
    if (!fi.pass || verbose) {
      std::fprintf(stderr, "%-16s %s  %s\n", fi.oracle.c_str(),
                   fi.pass ? "pass" : "FAIL", fi.details.c_str());
    }
    any_fail = any_fail || !fi.pass;
  }
  std::fprintf(stderr, "repro %s: %zu engine runs, %s\n", path.c_str(), runs,
               any_fail ? "oracle FAILED" : "all oracles passed");
  if (expect_fail) return any_fail ? 0 : 3;
  return any_fail ? 3 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  xpass::runner::Args args(argc, argv);

  const bool list_oracles = args.flag("list-oracles");
  const bool list_injections = args.flag("list-injections");

  xpass::check::FuzzOptions opts;
  opts.seed = args.u64("seed", 1);
  opts.count = args.u64("count", 50);
  opts.out_dir = args.str("out").value_or("");
  opts.inject = args.str("inject").value_or("");
  opts.gen.max_flows = args.u64("max-flows", opts.gen.max_flows);
  opts.gen.faults = !args.flag("no-faults");
  opts.gen.mixed = args.flag("mixed");
  opts.shrink = !args.flag("no-shrink");
  opts.oracles.metamorphic = !args.flag("no-metamorphic");
  opts.oracles.differential = !args.flag("no-differential");
  opts.verbose = args.flag("verbose");
  const auto protocol = args.str("protocol");
  const auto repro_path = args.str("repro");
  const bool expect_fail = args.flag("expect-fail");
  args.die_on_error(kUsage);

  if (list_oracles) {
    for (const auto& name : xpass::check::OracleSuite::oracle_names()) {
      std::printf("%s\n", std::string(name).c_str());
    }
    return 0;
  }
  if (list_injections) {
    for (const auto& inj : xpass::check::injections()) {
      std::printf("%-24s %s\n", std::string(inj.name).c_str(),
                  std::string(inj.description).c_str());
    }
    return 0;
  }

  if (protocol) {
    const auto p = xpass::runner::parse_protocol(*protocol);
    if (!p) {
      std::fprintf(stderr, "fuzz_scenarios: unknown protocol %s\n%s",
                   protocol->c_str(), kUsage);
      return 2;
    }
    opts.gen.protocol = *p;
  }
  if (!opts.inject.empty()) {
    xpass::runner::ScenarioSpec probe;
    if (!xpass::check::apply_injection(opts.inject, probe)) {
      std::fprintf(stderr, "fuzz_scenarios: unknown injection %s\n%s",
                   opts.inject.c_str(), kUsage);
      return 2;
    }
  }
  if (repro_path) {
    return run_repro(*repro_path, expect_fail, opts.verbose);
  }
  if (opts.count == 0) {
    std::fprintf(stderr, "fuzz_scenarios: --count must be >= 1\n%s", kUsage);
    return 2;
  }

  const auto report = xpass::check::run_fuzz(opts, stderr);
  std::fprintf(stderr,
               "fuzz: %zu scenarios, %zu engine runs, %zu failure(s)\n",
               report.scenarios, report.engine_runs, report.failures.size());
  return report.clean() ? 0 : 3;
}
