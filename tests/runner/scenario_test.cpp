#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "runner/scenario.hpp"

namespace {

using namespace xpass;
using runner::Protocol;
using sim::Time;

runner::ScenarioSpec small_dumbbell(Protocol proto) {
  runner::ScenarioSpec s;
  s.name = "unit/dumbbell";
  s.seed = 5;
  s.topology.kind = runner::TopologyKind::kDumbbell;
  s.topology.scale = 4;
  s.protocol = proto;
  s.traffic.kind = runner::TrafficKind::kPairwise;
  s.traffic.flows = 4;
  // Jain needs a decent window: §6.1 measures fairness over 100ms windows,
  // and short windows under-report it (credit scheduling round-robins).
  s.stop = runner::StopSpec::measure_window(Time::ms(5), Time::ms(40));
  return s;
}

TEST(ScenarioEngine, DumbbellWindowMeasures) {
  const auto r = runner::ScenarioEngine().run(small_dumbbell(
      Protocol::kExpressPass));
  EXPECT_EQ(r.name, "unit/dumbbell");
  EXPECT_EQ(r.seed, 5u);
  EXPECT_EQ(r.scheduled, 4u);
  EXPECT_EQ(r.end_time, Time::ms(45));
  // Four long-running ExpressPass flows fill ~95% of the 10G bottleneck and
  // split it evenly.
  EXPECT_GT(r.sum_rate_bps, 8e9);
  EXPECT_LT(r.sum_rate_bps, 10e9);
  EXPECT_GT(r.jain, 0.97);
  EXPECT_EQ(r.data_drops, 0u);
  ASSERT_EQ(r.flow_rates.size(), 4u);
  // flow_rates is sorted by flow id; ids are 1..4.
  EXPECT_EQ(r.flow_rates.front().first, 1u);
  EXPECT_EQ(r.flow_rates.back().first, 4u);
  EXPECT_GT(r.rate_of(2), 1e9);
  EXPECT_DOUBLE_EQ(r.rate_of(99), 0.0);
  // ExpressPass runs carry the credit ledger.
  EXPECT_GT(r.credits_received, 0u);
}

TEST(ScenarioEngine, DeterministicAcrossRuns) {
  runner::ScenarioEngine engine;
  const auto a = engine.run(small_dumbbell(Protocol::kDctcp));
  const auto b = engine.run(small_dumbbell(Protocol::kDctcp));
  EXPECT_EQ(a.sum_rate_bps, b.sum_rate_bps);
  EXPECT_EQ(a.jain, b.jain);
  EXPECT_EQ(a.bottleneck_max_queue_bytes, b.bottleneck_max_queue_bytes);
}

TEST(ScenarioEngine, CompletionStopReportsFcts) {
  runner::ScenarioSpec s;
  s.name = "unit/incast";
  s.seed = 7;
  s.topology.kind = runner::TopologyKind::kStar;
  s.topology.scale = 9;
  s.protocol = Protocol::kExpressPass;
  s.traffic.kind = runner::TrafficKind::kIncast;
  s.traffic.flows = 8;
  s.traffic.bytes = 50'000;
  s.stop = runner::StopSpec::completion(Time::sec(5));
  const auto r = runner::ScenarioEngine().run(s);
  EXPECT_TRUE(r.all_completed);
  EXPECT_EQ(r.completed, 8u);
  EXPECT_EQ(r.fcts.completed(), 8u);
  EXPECT_GT(r.fcts.all().percentile(0.99), 0.0);
  EXPECT_GT(r.bottleneck_max_queue_bytes, 0u);
}

TEST(ScenarioEngine, RecorderCarriesStandardScalars) {
  const auto r = runner::ScenarioEngine().run(small_dumbbell(
      Protocol::kExpressPass));
  EXPECT_TRUE(r.recorder.has("net.data_drops"));
  EXPECT_TRUE(r.recorder.has("flows.scheduled"));
  EXPECT_TRUE(r.recorder.has("goodput.sum_bps"));
  EXPECT_TRUE(r.recorder.has("xp.credit_waste_ratio"));
  EXPECT_DOUBLE_EQ(r.recorder.scalar("flows.scheduled"), 4.0);
  EXPECT_DOUBLE_EQ(r.recorder.scalar("goodput.sum_bps"), r.sum_rate_bps);
  const std::string json = r.recorder.to_json(r.name);
  EXPECT_NE(json.find("xpass.recorder.v1"), std::string::npos);
}

TEST(ScenarioEngine, TelemetrySeriesSampling) {
  auto s = small_dumbbell(Protocol::kExpressPass);
  s.stop = runner::StopSpec::run_for(Time::ms(10));
  s.telemetry.sample_interval = Time::ms(1);
  s.telemetry.bottleneck_queue_series = true;
  const auto r = runner::ScenarioEngine().run(s);
  const auto& series = r.recorder.series();
  auto it = series.find("queue.bottleneck.bytes");
  ASSERT_NE(it, series.end());
  EXPECT_EQ(it->second.t_sec.size(), 10u);
  EXPECT_DOUBLE_EQ(it->second.t_sec.back(), 0.010);
}

TEST(ScenarioEngine, SamplingDoesNotPerturbResults) {
  auto plain = small_dumbbell(Protocol::kExpressPass);
  auto sampled = plain;
  sampled.telemetry.sample_interval = Time::us(500);
  sampled.telemetry.bottleneck_queue_series = true;
  runner::ScenarioEngine engine;
  const auto a = engine.run(plain);
  const auto b = engine.run(sampled);
  EXPECT_EQ(a.sum_rate_bps, b.sum_rate_bps);
  EXPECT_EQ(a.bottleneck_max_queue_bytes, b.bottleneck_max_queue_bytes);
  EXPECT_EQ(a.jain, b.jain);
}

TEST(ScenarioEngine, PairwiseStartStaircase) {
  // Flow i starts at start_offset + i * start_step: its cumulative bytes
  // stay zero at every sample before that, and it delivers after it.
  auto s = small_dumbbell(Protocol::kExpressPass);
  s.traffic.start_offset = Time::us(300);
  s.traffic.start_step = Time::ms(1);
  s.stop = runner::StopSpec::run_for(Time::ms(6));
  s.telemetry.sample_interval = Time::us(100);
  s.telemetry.flow_rate_series = true;
  const auto r = runner::ScenarioEngine().run(s);
  for (uint32_t id = 1; id <= 4; ++id) {
    const Time start = s.traffic.start_offset + s.traffic.start_step * (id - 1);
    const auto& series =
        r.recorder.series().at("flow." + std::to_string(id) + ".bytes");
    for (size_t k = 0; k < series.v.size(); ++k) {
      if (Time::seconds(series.t_sec[k]) <= start) {
        EXPECT_EQ(series.v[k], 0.0) << "flow " << id << " at sample " << k;
      }
    }
    EXPECT_GT(series.v.back(), 0.0) << "flow " << id;
  }
}

TEST(ScenarioEngine, FaultPlanFiresAndIsReported) {
  auto s = small_dumbbell(Protocol::kExpressPass);
  s.stop = runner::StopSpec::run_for(Time::ms(10));
  s.faults.flap_down = Time::ms(2);
  s.faults.flap_up = Time::ms(4);
  s.check_invariants = true;
  const auto r = runner::ScenarioEngine().run(s);
  EXPECT_GE(r.faults_fired, 2u);  // down + up
  EXPECT_GE(r.fault_totals.failures, 1u);
  EXPECT_GE(r.fault_totals.recoveries, 1u);
  EXPECT_GT(r.invariant_sweeps, 0u);
  EXPECT_EQ(r.invariant_violations, 0u);
  EXPECT_TRUE(r.recorder.has("faults.fired"));
  EXPECT_TRUE(r.recorder.has("invariants.sweeps"));
}

TEST(ScenarioEngine, RejectsNumbersNoNetworkCanHave) {
  // Each of these would hang the run, run it with no capacity, or turn a
  // probability into "always"; the engine names the member instead.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  using Spec = runner::ScenarioSpec;
  const std::vector<std::pair<std::string, std::function<void(Spec&)>>>
      cases = {
          {"topology.host_rate_bps",
           [](Spec& s) { s.topology.host_rate_bps = -1e10; }},
          {"topology.host_rate_bps",
           [](Spec& s) { s.topology.host_rate_bps = 0; }},
          {"topology.host_rate_bps",
           [&](Spec& s) { s.topology.host_rate_bps = nan; }},
          {"topology.host_rate_bps",
           [&](Spec& s) { s.topology.host_rate_bps = inf; }},
          {"topology.fabric_rate_bps",
           [](Spec& s) { s.topology.fabric_rate_bps = -1; }},
          {"topology.fabric_rate_bps",
           [&](Spec& s) { s.topology.fabric_rate_bps = inf; }},
          {"faults.errors.data_drop",
           [](Spec& s) { s.faults.errors.data_drop = 1.5; }},
          {"faults.errors.credit_corrupt",
           [](Spec& s) { s.faults.errors.credit_corrupt = -0.1; }},
          {"faults.errors.ge_drop_bad",
           [&](Spec& s) { s.faults.errors.ge_drop_bad = nan; }},
      };
  for (const auto& [member, bend] : cases) {
    auto s = small_dumbbell(Protocol::kExpressPass);
    s.stop = runner::StopSpec::run_for(Time::ms(1));
    bend(s);
    try {
      runner::ScenarioEngine().run(s);
      ADD_FAILURE() << member << ": accepted";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("ScenarioSpec." + member),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ScenarioEngine, RunGridIsOrderedAndJobsIndependent) {
  std::vector<runner::ScenarioSpec> grid;
  for (Protocol p : {Protocol::kExpressPass, Protocol::kDctcp}) {
    grid.push_back(small_dumbbell(p));
  }
  grid = runner::expand_axis(grid, std::vector<size_t>{2, 4},
                             [](runner::ScenarioSpec& s, size_t n) {
                               s.topology.scale = n;
                               s.traffic.flows = n;
                             });
  ASSERT_EQ(grid.size(), 4u);
  runner::ScenarioEngine engine;
  const auto serial = engine.run_grid(grid, 1);
  const auto parallel = engine.run_grid(grid, 3);
  ASSERT_EQ(serial.size(), 4u);
  for (size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(serial[i].scheduled, grid[i].traffic.flows);
    EXPECT_EQ(serial[i].sum_rate_bps, parallel[i].sum_rate_bps);
    EXPECT_EQ(serial[i].jain, parallel[i].jain);
  }
}

}  // namespace
