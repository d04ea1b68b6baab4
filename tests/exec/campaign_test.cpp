// Campaign runner tests. A fake RunSpecFn stands in for the engine so the
// tests can model hangs, crashes and budget truncations directly, and count
// exactly how many times each spec really executed.
#include "exec/campaign.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/fuzzer.hpp"

namespace xpass::exec {
namespace {

namespace fs = std::filesystem;

std::string temp_dir(const char* name) {
  const fs::path dir = fs::path(testing::TempDir()) / name;
  fs::remove_all(dir);
  return dir.string();
}

std::vector<runner::ScenarioSpec> make_specs(size_t n) {
  std::vector<runner::ScenarioSpec> specs(n);
  for (size_t i = 0; i < n; ++i) {
    specs[i].name = "campaign_spec_" + std::to_string(i);
    specs[i].seed = 100 + i;
  }
  return specs;
}

// Deterministic synthetic result: the payload is a pure function of the
// spec, like a real (deterministic) engine run.
runner::ScenarioResult fake_result(const runner::ScenarioSpec& spec) {
  runner::ScenarioResult res;
  res.name = spec.name;
  res.seed = spec.seed;
  res.recorder.set("test.seed", static_cast<double>(spec.seed));
  return res;
}

TEST(Campaign, FreshRunPublishesThenResumeServesByteIdenticalHits) {
  const auto specs = make_specs(3);
  CampaignOptions opts;
  opts.cache_dir = temp_dir("campaign_resume");
  opts.resume = true;
  std::atomic<size_t> executions{0};
  const RunSpecFn fn = [&](const runner::ScenarioSpec& s,
                           const runner::RunOverrides&) {
    ++executions;
    return fake_result(s);
  };

  const CampaignReport first = run_campaign(specs, opts, fn);
  EXPECT_EQ(first.ran, 3u);
  EXPECT_EQ(first.hits, 0u);
  EXPECT_EQ(executions.load(), 3u);
  for (const auto& t : first.tasks) {
    EXPECT_TRUE(t.outcome.ok());
    EXPECT_TRUE(t.cached);
    EXPECT_FALSE(t.payload.empty());
    EXPECT_TRUE(t.result.has_value());
  }

  const CampaignReport second = run_campaign(specs, opts, fn);
  EXPECT_EQ(second.hits, 3u);
  EXPECT_EQ(second.ran, 0u);
  EXPECT_EQ(executions.load(), 3u);  // nothing re-executed
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_TRUE(second.tasks[i].cache_hit);
    // The merge guarantee: a hit's payload IS the original run's bytes.
    EXPECT_EQ(second.tasks[i].payload, first.tasks[i].payload);
    EXPECT_EQ(second.tasks[i].key, first.tasks[i].key);
  }
}

TEST(Campaign, PartialStoreResumeMergesIdenticallyWithUninterruptedRun) {
  const auto specs = make_specs(4);
  const RunSpecFn fn = [](const runner::ScenarioSpec& s,
                          const runner::RunOverrides&) {
    return fake_result(s);
  };

  // Reference: one uninterrupted campaign (no cache at all).
  const CampaignReport ref = run_campaign(specs, CampaignOptions{}, fn);

  // Interrupted: only the first two specs completed before the "crash".
  CampaignOptions opts;
  opts.cache_dir = temp_dir("campaign_partial");
  opts.resume = true;
  const std::vector<runner::ScenarioSpec> half(specs.begin(),
                                               specs.begin() + 2);
  run_campaign(half, opts, fn);

  // Resume over the full grid: two hits, two fresh runs, and the merged
  // payloads are byte-identical to the uninterrupted campaign.
  const CampaignReport resumed = run_campaign(specs, opts, fn);
  EXPECT_EQ(resumed.hits, 2u);
  EXPECT_EQ(resumed.ran, 2u);
  for (size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(resumed.tasks[i].payload, ref.tasks[i].payload);
  }
}

TEST(Campaign, ThrowingSpecIsQuarantinedWithReplayableRepro) {
  const auto specs = make_specs(3);
  CampaignOptions opts;
  opts.cache_dir = temp_dir("campaign_quarantine");
  const RunSpecFn fn = [](const runner::ScenarioSpec& s,
                          const runner::RunOverrides&) {
    if (s.seed == 101) throw std::runtime_error("boom: flow table corrupt");
    return fake_result(s);
  };

  const CampaignReport report = run_campaign(specs, opts, fn);
  EXPECT_FALSE(report.all_usable());
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_EQ(report.ran, 2u);

  const CampaignTaskResult& bad = report.tasks[1];
  EXPECT_EQ(bad.outcome.status, TaskStatus::kFailed);
  EXPECT_NE(bad.outcome.error.find("boom"), std::string::npos);
  ASSERT_FALSE(bad.quarantine_path.empty());

  // The quarantine artifact replays through the standard fuzz-repro path.
  std::ifstream in(bad.quarantine_path, std::ios::binary);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  std::string err;
  const auto repro = check::repro_from_json(text, &err);
  ASSERT_TRUE(repro.has_value()) << err;
  EXPECT_EQ(repro->spec.seed, specs[1].seed);
  EXPECT_EQ(repro->spec.name, specs[1].name);
}

TEST(Campaign, WallClockTruncationIsAResultButNeverCached) {
  const auto specs = make_specs(1);
  CampaignOptions opts;
  opts.cache_dir = temp_dir("campaign_wallclock");
  opts.resume = true;
  std::atomic<size_t> executions{0};
  const RunSpecFn fn = [&](const runner::ScenarioSpec& s,
                           const runner::RunOverrides&) {
    ++executions;
    runner::ScenarioResult res = fake_result(s);
    res.aborted = true;
    res.abort_reason = "wall-clock-budget";
    res.recorder.set_abort(res.abort_reason);
    return res;
  };

  const CampaignReport first = run_campaign(specs, opts, fn);
  EXPECT_EQ(first.timed_out, 1u);
  EXPECT_EQ(first.ran, 1u);  // a truncated result is still usable
  EXPECT_TRUE(first.all_usable());
  EXPECT_EQ(first.tasks[0].outcome.status, TaskStatus::kTimedOut);
  EXPECT_FALSE(first.tasks[0].cached);  // machine-dependent: never stored

  const CampaignReport second = run_campaign(specs, opts, fn);
  EXPECT_EQ(second.hits, 0u);  // resume must re-run it
  EXPECT_EQ(executions.load(), 2u);
}

TEST(Campaign, DeterministicBudgetTruncationCachesLikeAnyResult) {
  const auto specs = make_specs(1);
  CampaignOptions opts;
  opts.cache_dir = temp_dir("campaign_eventbudget");
  opts.resume = true;
  std::atomic<size_t> executions{0};
  const RunSpecFn fn = [&](const runner::ScenarioSpec& s,
                           const runner::RunOverrides&) {
    ++executions;
    runner::ScenarioResult res = fake_result(s);
    res.aborted = true;
    res.abort_reason = "event-budget";
    res.recorder.set_abort(res.abort_reason);
    return res;
  };

  const CampaignReport first = run_campaign(specs, opts, fn);
  EXPECT_EQ(first.over_budget, 1u);
  EXPECT_TRUE(first.tasks[0].cached);
  EXPECT_NE(first.tasks[0].payload.find("\"aborted\": true"),
            std::string::npos);

  const CampaignReport second = run_campaign(specs, opts, fn);
  EXPECT_EQ(second.hits, 1u);
  EXPECT_EQ(executions.load(), 1u);  // served from the store
  EXPECT_EQ(second.tasks[0].payload, first.tasks[0].payload);
}

TEST(Campaign, DefaultRunToCompletionExecutesEverythingPastFailures) {
  const auto specs = make_specs(4);
  CampaignOptions opts;
  opts.jobs = 2;
  const RunSpecFn fn = [](const runner::ScenarioSpec& s,
                          const runner::RunOverrides&) -> runner::ScenarioResult {
    if (s.seed == 100) throw std::runtime_error("hard failure");
    return fake_result(s);
  };

  const CampaignReport report = run_campaign(specs, opts, fn);
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_EQ(report.ran, 3u);
}

TEST(Campaign, NonStdExceptionIsQuarantinedToo) {
  const auto specs = make_specs(3);
  CampaignOptions opts;
  opts.jobs = 2;
  const RunSpecFn fn = [](const runner::ScenarioSpec& s,
                          const runner::RunOverrides&) -> runner::ScenarioResult {
    if (s.seed == 101) throw 42;
    return fake_result(s);
  };

  const CampaignReport report = run_campaign(specs, opts, fn);
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_EQ(report.ran, 2u);
  EXPECT_EQ(report.tasks[1].outcome.status, TaskStatus::kFailed);
  EXPECT_EQ(report.tasks[1].outcome.error, "unknown exception");
  EXPECT_TRUE(report.tasks[0].outcome.ok());
  EXPECT_TRUE(report.tasks[2].outcome.ok());
}

TEST(Campaign, TimeoutForwardedAsWallClockOverride) {
  const auto specs = make_specs(1);
  CampaignOptions opts;
  opts.timeout_ms = 1234.5;
  double seen = -1;
  const RunSpecFn fn = [&](const runner::ScenarioSpec& s,
                           const runner::RunOverrides& ov) {
    seen = ov.wall_clock_ms;
    return fake_result(s);
  };
  run_campaign(specs, opts, fn);
  EXPECT_EQ(seen, 1234.5);
}

TEST(Campaign, NoCacheDirStillIsolatesFailures) {
  const auto specs = make_specs(2);
  const RunSpecFn fn = [](const runner::ScenarioSpec& s,
                          const runner::RunOverrides&) -> runner::ScenarioResult {
    if (s.seed == 100) throw std::runtime_error("boom");
    return fake_result(s);
  };
  const CampaignReport report = run_campaign(specs, CampaignOptions{}, fn);
  EXPECT_EQ(report.quarantined, 1u);
  EXPECT_EQ(report.ran, 1u);
  // No store: quarantine repro files have nowhere to go.
  EXPECT_TRUE(report.tasks[0].quarantine_path.empty());
  EXPECT_TRUE(report.tasks[1].outcome.ok());
}

TEST(Campaign, ManifestRecordsEveryDisposition) {
  const auto specs = make_specs(3);
  CampaignOptions opts;
  opts.cache_dir = temp_dir("campaign_manifest");
  const RunSpecFn fn = [](const runner::ScenarioSpec& s,
                          const runner::RunOverrides&) -> runner::ScenarioResult {
    if (s.seed == 101) throw std::runtime_error("boom");
    return fake_result(s);
  };
  run_campaign(specs, opts, fn);

  CampaignStore store(opts.cache_dir);
  const auto lines = store.read_manifest();
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"status\": \"ok\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"status\": \"failed\""), std::string::npos);
  EXPECT_NE(lines[1].find("boom"), std::string::npos);
  EXPECT_NE(lines[2].find("\"status\": \"ok\""), std::string::npos);
}

TEST(TaskStatus, NamesAreStable) {
  EXPECT_EQ(task_status_name(TaskStatus::kOk), "ok");
  EXPECT_EQ(task_status_name(TaskStatus::kFailed), "failed");
  EXPECT_EQ(task_status_name(TaskStatus::kTimedOut), "timed-out");
  EXPECT_EQ(task_status_name(TaskStatus::kOverBudget), "over-budget");
}

}  // namespace
}  // namespace xpass::exec
