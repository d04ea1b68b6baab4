#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "check/fuzzer.hpp"
#include "check/oracles.hpp"
#include "check/shrinker.hpp"
#include "check/spec_json.hpp"
#include "runner/scenario.hpp"

namespace {

using xpass::check::apply_injection;
using xpass::check::FuzzFailure;
using xpass::check::injections;
using xpass::check::OracleSuite;
using xpass::check::repro_from_json;
using xpass::check::repro_to_json;
using xpass::check::RunFn;
using xpass::check::shrink_spec;
using xpass::check::ShrinkOptions;
using xpass::check::spec_to_json;
using xpass::runner::Protocol;
using xpass::runner::ScenarioEngine;
using xpass::runner::ScenarioSpec;
using xpass::runner::StopSpec;
using xpass::runner::TopologyKind;
using xpass::runner::TrafficKind;
using xpass::sim::Time;

// Runs the *declared* spec with `inject` silently applied to the executed
// copy — the fuzzer's model of "implementation diverges from its spec".
RunFn injected_run(const std::string& inject) {
  return [inject](const ScenarioSpec& declared) {
    ScenarioSpec executed = declared;
    EXPECT_TRUE(apply_injection(inject, executed));
    static const ScenarioEngine engine;
    return engine.run(executed);
  };
}

// Asserts that `oracle` applies to `spec` and that its verdict under the
// injection is `expect_pass`.
void expect_verdict(const ScenarioSpec& spec, const std::string& oracle,
                    const std::string& inject, bool expect_pass) {
  const OracleSuite suite;
  const auto finding = suite.evaluate_one(oracle, spec, injected_run(inject));
  ASSERT_TRUE(finding.has_value())
      << oracle << " does not apply to " << spec.name;
  EXPECT_EQ(finding->pass, expect_pass)
      << oracle << " under '" << inject << "': " << finding->details;
}

// --- registry --------------------------------------------------------------

TEST(Injections, RegistryAndUnknownNames) {
  const auto list = injections();
  ASSERT_EQ(list.size(), 4u);
  EXPECT_EQ(list[0].name, "no-jitter");
  EXPECT_EQ(list[1].name, "naive-feedback");
  EXPECT_EQ(list[2].name, "starved-reservation");
  EXPECT_EQ(list[3].name, "silent-data-loss");

  ScenarioSpec spec;
  EXPECT_TRUE(apply_injection("", spec));  // identity
  EXPECT_EQ(spec_to_json(spec), spec_to_json(ScenarioSpec{}));
  EXPECT_FALSE(apply_injection("not-a-bug", spec));
  for (const auto& i : list) {
    ScenarioSpec mutated;
    EXPECT_TRUE(apply_injection(i.name, mutated));
    EXPECT_NE(spec_to_json(mutated), spec_to_json(ScenarioSpec{}))
        << i.name << " must change the executed spec";
  }
}

// --- injection -> oracle pinning -------------------------------------------
// One known-applicable spec per registered injection, asserting both
// directions: the injected run fails the pinned oracle, the honest run
// passes it. These specs are frozen fuzzer catches (seed 1 campaigns).

ScenarioSpec naive_feedback_scenario() {
  // Fig 11 chain at 40G: the naive max-rate scheme parks the 1-hop flow at
  // ~1.9x its max-min share, outside maxmin-diff's [0.4, 1.8] band.
  ScenarioSpec s;
  s.name = "pin/naive-mb";
  s.seed = 4363679437952121440ull;
  s.base_rtt = Time::us(25);
  s.topology.kind = TopologyKind::kMultiBottleneck;
  s.topology.scale = 3;
  s.topology.host_rate_bps = 40e9;
  s.topology.host_prop = Time::us(5);
  s.traffic.kind = TrafficKind::kChain;
  s.stop = StopSpec::measure_window(Time::ms(11), Time::ms(43));
  s.check_invariants = true;
  return s;
}

TEST(Injections, NaiveFeedbackCaughtByMaxminDiff) {
  const ScenarioSpec s = naive_feedback_scenario();
  expect_verdict(s, "maxmin-diff", "naive-feedback", false);
  expect_verdict(s, "maxmin-diff", "", true);
}

ScenarioSpec no_jitter_scenario() {
  // Micro-Clos pairwise at 40G: without pacing jitter + credit-size
  // randomization the credit streams synchronize and the fabric drops data
  // (exactly the §3.1 failure the jitter exists to prevent) — the runtime
  // invariant sweeps catch it as healthy-window data loss.
  ScenarioSpec s;
  s.name = "pin/nojitter-clos";
  s.seed = 9429657178034114445ull;
  s.base_rtt = Time::us(25);
  s.topology.kind = TopologyKind::kClos;
  s.topology.clos = {2, 2, 1, 2, 2};
  s.topology.host_rate_bps = 40e9;
  s.topology.fabric_rate_bps = 160e9;
  s.topology.host_prop = Time::us(5);
  s.traffic.kind = TrafficKind::kPairwise;
  s.traffic.flows = 4;
  s.stop = StopSpec::measure_window(Time::ms(12), Time::ms(10));
  s.check_invariants = true;
  return s;
}

TEST(Injections, NoJitterCaughtByInvariants) {
  const ScenarioSpec s = no_jitter_scenario();
  expect_verdict(s, "invariants", "no-jitter", false);
  expect_verdict(s, "invariants", "", true);
}

ScenarioSpec silent_loss_scenario() {
  // Plain healthy dumbbell; the injection makes the executed fabric drop
  // ~1/500 data frames while the declared model stays fault-free.
  ScenarioSpec s;
  s.name = "pin/silent-loss";
  s.seed = 17;
  s.topology.scale = 2;
  s.topology.host_prop = Time::us(2);
  s.traffic.kind = TrafficKind::kPairwise;
  s.traffic.flows = 2;
  s.stop = StopSpec::measure_window(Time::ms(10), Time::ms(40));
  s.check_invariants = true;
  return s;
}

TEST(Injections, SilentDataLossCaughtByZeroDataLoss) {
  const ScenarioSpec s = silent_loss_scenario();
  expect_verdict(s, "zero-data-loss", "silent-data-loss", false);
  expect_verdict(s, "zero-data-loss", "", true);
}

// --- rescale transform -----------------------------------------------------

TEST(Oracles, RescaleScalesTheStartStaircase) {
  // 2x link speed runs every time constant at 1/2, pairwise start times
  // included.
  ScenarioSpec s;
  s.topology.scale = 2;
  s.stop = StopSpec::measure_window(Time::ms(10), Time::ms(10));
  s.traffic.start_spread_sec = 2e-3;
  s.traffic.start_offset = Time::ms(3);
  s.traffic.start_step = Time::us(500);
  std::vector<ScenarioSpec> runs;
  const RunFn record = [&runs](const ScenarioSpec& spec) {
    runs.push_back(spec);
    return xpass::runner::ScenarioResult{};
  };
  ASSERT_TRUE(OracleSuite().evaluate_one("rescale", s, record).has_value());
  ASSERT_EQ(runs.size(), 2u);
  EXPECT_EQ(runs[1].traffic.start_spread_sec, 1e-3);
  EXPECT_EQ(runs[1].traffic.start_offset, Time::us(1500));
  EXPECT_EQ(runs[1].traffic.start_step, Time::us(250));
}

// --- shrinking -------------------------------------------------------------

TEST(Shrinker, ReducesSilentLossCatchToFourFlowsOrFewer) {
  // The acceptance bar for the whole harness: an injected bug's catch must
  // shrink to a <= 4 flow repro while still failing the same oracle.
  // Pairwise so every flow crosses the faulted bottleneck link (dumbbell
  // incast mostly stays under one ToR and barely touches it).
  ScenarioSpec s = silent_loss_scenario();
  s.name = "pin/shrink";
  s.topology.scale = 8;
  s.traffic.flows = 8;
  s.stop = StopSpec::measure_window(Time::ms(10), Time::ms(20));

  const OracleSuite suite;
  const RunFn run = injected_run("silent-data-loss");
  const auto before = suite.evaluate_one("zero-data-loss", s, run);
  ASSERT_TRUE(before.has_value() && !before->pass)
      << "seed spec must fail before shrinking";

  ShrinkOptions opts;
  const auto out = shrink_spec(s, "zero-data-loss", suite, run, opts);
  EXPECT_LE(out.spec.traffic.flows, 4u);
  EXPECT_LT(out.spec.topology.scale, 8u);
  EXPECT_GT(out.accepted, 0u);
  EXPECT_FALSE(out.details.empty());
  // The minimal spec still fails — that is what makes it a repro.
  const auto after = suite.evaluate_one("zero-data-loss", out.spec, run);
  ASSERT_TRUE(after.has_value());
  EXPECT_FALSE(after->pass);
}

// --- repro round trip -------------------------------------------------------

TEST(Repro, RoundTripsSpecInjectionAndOracle) {
  FuzzFailure f;
  f.index = 12;
  f.oracle = "zero-data-loss";
  f.details = "67 data frame(s) lost";
  f.spec = silent_loss_scenario();
  const std::string doc = repro_to_json(f, 99, "silent-data-loss");

  std::string err;
  const auto back = repro_from_json(doc, &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->inject, "silent-data-loss");
  EXPECT_EQ(back->oracle, "zero-data-loss");
  EXPECT_EQ(spec_to_json(back->spec), spec_to_json(f.spec));
}

TEST(Repro, AcceptsBareSpecDocuments) {
  std::string err;
  const auto back = repro_from_json(spec_to_json(silent_loss_scenario()), &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_TRUE(back->inject.empty());
  EXPECT_TRUE(back->oracle.empty());
  EXPECT_EQ(spec_to_json(back->spec), spec_to_json(silent_loss_scenario()));
}

TEST(Repro, RejectsGarbage) {
  std::string err;
  EXPECT_FALSE(repro_from_json("{]", &err).has_value());
  EXPECT_FALSE(err.empty());
  err.clear();
  EXPECT_FALSE(
      repro_from_json(R"({"schema":"xpass.fuzz.repro.v1"})", &err).has_value());
  EXPECT_NE(err.find("spec"), std::string::npos);
}

}  // namespace
