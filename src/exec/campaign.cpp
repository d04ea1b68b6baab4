#include "exec/campaign.hpp"

#include <fstream>
#include <mutex>
#include <utility>

#include "check/fuzzer.hpp"
#include "check/json.hpp"
#include "check/spec_json.hpp"
#include "exec/sweep_runner.hpp"

namespace xpass::exec {

std::string_view task_status_name(TaskStatus s) {
  switch (s) {
    case TaskStatus::kOk: return "ok";
    case TaskStatus::kFailed: return "failed";
    case TaskStatus::kTimedOut: return "timed-out";
    case TaskStatus::kOverBudget: return "over-budget";
  }
  return "?";
}

namespace {

// Disposition of one freshly executed spec, decided from the simulator's
// abort reason. Only deterministic outcomes may enter the store.
struct FreshVerdict {
  TaskStatus status = TaskStatus::kOk;
  bool cacheable = true;
};

FreshVerdict classify(const runner::ScenarioResult& res) {
  if (!res.aborted) return {TaskStatus::kOk, true};
  if (res.abort_reason == "wall-clock-budget") {
    // Machine-dependent truncation: a usable partial result, but caching it
    // would let one slow machine's truncation masquerade as THE result for
    // this spec everywhere. Always re-run.
    return {TaskStatus::kTimedOut, false};
  }
  // Event / sim-time / live-event budgets are pure functions of the spec:
  // the truncated result is the same on every machine, so it caches.
  return {TaskStatus::kOverBudget, true};
}

std::string manifest_line(size_t index, const runner::ScenarioSpec& spec,
                          const CampaignTaskResult& t) {
  check::Json doc = check::Json::object();
  doc.set("schema", check::Json::str(std::string(kManifestSchema)));
  doc.set("index", check::Json::u64(index));
  doc.set("key", check::Json::str(t.key));
  doc.set("name", check::Json::str(spec.name));
  doc.set("seed", check::Json::u64(spec.seed));
  doc.set("status",
          check::Json::str(std::string(task_status_name(t.outcome.status))));
  doc.set("cache_hit", check::Json::boolean(t.cache_hit));
  if (!t.outcome.error.empty()) {
    doc.set("error", check::Json::str(t.outcome.error));
  }
  if (!t.quarantine_path.empty()) {
    doc.set("quarantine", check::Json::str(t.quarantine_path));
  }
  return doc.dump();
}

}  // namespace

CampaignReport run_campaign(const std::vector<runner::ScenarioSpec>& specs,
                            const CampaignOptions& opts, RunSpecFn run_spec) {
  if (!run_spec) {
    run_spec = [](const runner::ScenarioSpec& spec,
                  const runner::RunOverrides& ov) {
      return runner::ScenarioEngine{}.run(spec, ov);
    };
  }
  std::optional<CampaignStore> store;
  if (!opts.cache_dir.empty()) store.emplace(opts.cache_dir);

  const size_t n = specs.size();
  CampaignReport report;
  report.tasks.resize(n);

  // Content addresses first: the canonical bytes double as the identity for
  // resume and (embedded in the repro) for quarantine replay.
  for (size_t i = 0; i < n; ++i) {
    report.tasks[i].key = CampaignStore::key(check::spec_to_json(specs[i]));
  }

  // Resolve cache hits up front so the pool only ever sees real work.
  std::vector<size_t> pending;
  pending.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    CampaignTaskResult& t = report.tasks[i];
    if (store && opts.resume) {
      if (std::optional<std::string> payload = store->load(t.key)) {
        t.cache_hit = true;
        t.payload = std::move(*payload);
        continue;
      }
    }
    pending.push_back(i);
  }

  // The store handle is not thread-safe (counters, temp-name sequence);
  // publish under a mutex. The simulation itself runs outside the lock.
  // Each task catches its own exception, so map() never cancels: every
  // pending spec runs once and fails alone.
  std::mutex store_mu;
  SweepRunner pool(opts.jobs);
  std::vector<TaskOutcome> outcomes = pool.map(pending.size(), [&](size_t j) {
    const size_t i = pending[j];
    TaskOutcome out;
    try {
      runner::RunOverrides ov;
      ov.wall_clock_ms = opts.timeout_ms;
      runner::ScenarioResult res = run_spec(specs[i], ov);
      const FreshVerdict v = classify(res);
      std::string payload = res.recorder.to_json(res.name);
      const std::lock_guard<std::mutex> lock(store_mu);
      CampaignTaskResult& t = report.tasks[i];
      t.payload = std::move(payload);
      t.result = std::move(res);
      // Publish immediately: the store is the crash-safe ground truth. A
      // SIGKILL one instruction after this line loses nothing.
      if (store && v.cacheable) t.cached = store->store(t.key, t.payload);
      out.status = v.status;
    } catch (const std::exception& e) {
      out = {TaskStatus::kFailed, e.what()};
    } catch (...) {
      out = {TaskStatus::kFailed, "unknown exception"};
    }
    return out;
  });

  // Quarantine: every task that threw gets a replayable fuzz-format repro
  // embedding the exact spec. Deliberately reuses the fuzzer's schema so
  // `fuzz_scenarios --repro <file>` needs no new mode.
  for (size_t j = 0; j < pending.size(); ++j) {
    const size_t i = pending[j];
    CampaignTaskResult& t = report.tasks[i];
    t.outcome = std::move(outcomes[j]);
    if (t.outcome.status != TaskStatus::kFailed || !store) continue;
    check::FuzzFailure f;
    f.index = i;
    f.oracle = "exception";
    f.details = t.outcome.error;
    f.spec = specs[i];
    const std::string path = store->quarantine_dir() + "/" + t.key + ".json";
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (out) {
      out << check::repro_to_json(f, specs[i].seed, "");
      out.flush();
      if (out) t.quarantine_path = path;
    }
  }

  // Journal every disposition in index order — one append per task, after
  // the drain, so a reader sees a consistent prefix of the campaign.
  if (store) {
    for (size_t i = 0; i < n; ++i) {
      store->append_manifest(manifest_line(i, specs[i], report.tasks[i]));
    }
  }

  for (const CampaignTaskResult& t : report.tasks) {
    switch (t.outcome.status) {
      case TaskStatus::kOk:
        t.cache_hit ? ++report.hits : ++report.ran;
        break;
      case TaskStatus::kTimedOut:
        ++report.timed_out;
        ++report.ran;
        break;
      case TaskStatus::kOverBudget:
        ++report.over_budget;
        ++report.ran;
        break;
      case TaskStatus::kFailed:
        ++report.quarantined;
        break;
    }
  }
  return report;
}

}  // namespace xpass::exec
