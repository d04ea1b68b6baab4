// Campaign runner: crash-safe execution of a batch of ScenarioSpecs.
//
// A campaign is run_grid() hardened for unattended fleets. Where run_grid
// assumes every spec completes and any exception kills the sweep, a
// campaign assumes the opposite — tasks hang, throw, blow budgets, and the
// process itself gets SIGKILLed mid-flight — and guarantees three things:
//
//  1. Isolation. Each pending spec is one SweepRunner::map task that
//     catches its own exception, so one throwing spec is a quarantined
//     data point, not a dead campaign. A run depends only on (spec, seed),
//     so a spec that throws once throws on every attempt: each runs once.
//     The quarantine artifact is a standard `xpass.fuzz.repro.v1` file
//     holding the exact spec, so `fuzz_scenarios --repro <file>` replays
//     the crash with zero extra tooling. The rest of the campaign is
//     unaffected.
//
//  2. Budget discipline. opts.timeout_ms arms a wall-clock RunBudget on
//     every run (on top of any per-spec budget): a hanging spec becomes a
//     kTimedOut outcome with a truncated-but-valid result, not a stuck
//     fleet. Wall-clock truncations are machine-dependent and are NEVER
//     cached; deterministic budget truncations (event / sim-time / live
//     set) are pure functions of the spec and cache like any result.
//
//  3. Resumability. Completed results are published to a CampaignStore
//     (content-addressed, atomic-rename, checksummed) the moment each task
//     finishes — the store, not process memory, is the ground truth. A
//     re-run with resume=true loads verified entries as cache hits and
//     re-executes only missing / corrupt / never-completed specs; the
//     merged output is byte-identical to an uninterrupted campaign because
//     a hit's payload IS the bytes the original run produced. The manifest
//     journal records per-task dispositions for auditability; resume
//     decisions deliberately key off the object entries alone, so a torn
//     manifest tail (the normal SIGKILL artifact) is harmless.
//
// Layering: this sits above runner (it executes specs) and check (it
// canonicalizes specs for addressing and emits repro files), hence the
// separate xpass_campaign target — xpass_exec itself stays below runner.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "exec/campaign_store.hpp"
#include "runner/scenario.hpp"

namespace xpass::exec {

enum class TaskStatus : uint8_t {
  kOk,
  kFailed,      // threw; `error` holds the exception text
  kTimedOut,    // wall-clock budget tripped (machine-dependent truncation)
  kOverBudget,  // deterministic budget tripped (event / sim-time / live cap)
};
std::string_view task_status_name(TaskStatus s);

struct TaskOutcome {
  TaskStatus status = TaskStatus::kOk;
  std::string error;  // exception text for kFailed, else empty
  bool ok() const { return status == TaskStatus::kOk; }
};

struct CampaignOptions {
  // Result store directory; "" disables caching (every spec always runs,
  // nothing persists — isolation and budgets still apply).
  std::string cache_dir;
  // With a cache_dir: serve verified store entries instead of re-running.
  // Off, the store is write-only (results publish, but every spec runs).
  bool resume = false;
  // Per-task wall-clock budget in ms (0 = none). Applied as a RunBudget
  // override on top of any spec-level budget.
  double timeout_ms = 0;
  size_t jobs = 0;  // 0 = default_jobs()
};

struct CampaignTaskResult {
  std::string key;       // content address of the spec
  TaskOutcome outcome;   // final disposition (kOk for cache hits)
  bool cache_hit = false;   // payload served from the store
  bool cached = false;      // payload published to the store by this run
  std::string payload;      // xpass.recorder.v1 JSON (hit or fresh); "" if
                            // the task failed outright
  std::string quarantine_path;  // repro file for kFailed ("" otherwise)
  // The in-memory result for freshly executed specs; nullopt for cache
  // hits (the payload carries everything the store knows) and failures.
  std::optional<runner::ScenarioResult> result;
};

struct CampaignReport {
  std::vector<CampaignTaskResult> tasks;  // index-aligned with the specs
  size_t hits = 0;
  size_t ran = 0;  // freshly executed to a usable result (ok or truncated)
  size_t quarantined = 0;
  size_t timed_out = 0;
  size_t over_budget = 0;
  bool all_usable() const { return quarantined == 0; }
};

inline constexpr std::string_view kManifestSchema =
    "xpass.campaign.manifest.v1";

// Executes a spec under merged budgets and returns its result. Injectable
// so tests can model hangs, crashes and budget truncations without
// building real pathological topologies.
using RunSpecFn = std::function<runner::ScenarioResult(
    const runner::ScenarioSpec&, const runner::RunOverrides&)>;

// Runs the campaign. Never throws for per-task reasons; store-directory
// creation failure (unusable cache_dir) does throw std::runtime_error.
CampaignReport run_campaign(const std::vector<runner::ScenarioSpec>& specs,
                            const CampaignOptions& opts,
                            RunSpecFn run_spec = {});

}  // namespace xpass::exec
