// SweepRunner: a thread pool for embarrassingly parallel parameter sweeps.
//
// A sweep is N independent simulations (protocol x flow-count grids, seed
// replications, fault matrices). Each task builds its own Simulator, so
// tasks share no mutable state and the only coordination is an atomic work
// counter. Two properties make parallel sweeps safe to adopt everywhere:
//
//  * Determinism: results land in a pre-sized vector at their task index,
//    so the reduced output is byte-identical for any worker count — the
//    interleaving only affects wall-clock, never content. Per-task seeds
//    come from task_seed(base, index), a pure function of the pair.
//
//  * Task isolation: run_tasks() catches every task exception where it
//    happens, retries per RetryPolicy (exponential backoff with seeded
//    jitter), and records a per-task TaskOutcome — one crashing task is a
//    quarantinable data point, not a dead campaign. The legacy map() keeps
//    fail-fast semantics (first exception rethrown on the caller), but
//    cooperatively cancels: once a task has failed, workers stop
//    *scheduling* new tasks instead of burning CPU on a sweep whose result
//    is already doomed.
//
// With jobs == 1 (or a single task) everything runs inline on the caller's
// thread — no pool, no atomics — which is also the mode the determinism
// tests compare against.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace xpass::exec {

// Deterministic per-task seed: splitmix64 of the base seed advanced by the
// task index. Distinct indices give decorrelated streams even for adjacent
// base seeds, and task 0 differs from the base itself (a sweep's task 0 is
// not the same stream as a standalone run with the base seed).
uint64_t task_seed(uint64_t base_seed, uint64_t task_index);

// Worker count when the caller does not choose: the XPASS_JOBS environment
// variable if set (clamped to >= 1), else std::thread::hardware_concurrency.
size_t default_jobs();

// --- task isolation -------------------------------------------------------

enum class TaskStatus : uint8_t {
  kOk,
  kFailed,      // threw on every attempt; `error` holds the exception text
  kTimedOut,    // wall-clock budget tripped (machine-dependent truncation)
  kOverBudget,  // deterministic budget tripped (event / sim-time / live cap)
  kSkipped,     // never started: a fail-fast sibling cancelled the sweep
};
std::string_view task_status_name(TaskStatus s);

struct TaskOutcome {
  TaskStatus status = TaskStatus::kSkipped;
  std::string error;      // exception text for kFailed, else empty
  uint32_t attempts = 0;  // execution attempts made (0 = skipped)
  bool ok() const { return status == TaskStatus::kOk; }
};

// Retry shape for transient task failures (same exponential-backoff+jitter
// family as the PR 2 ExpressPass watchdog, but wall-clock): retry `attempt`
// sleeps backoff_base_ms * 2^(attempt-1), capped, scaled by a seeded jitter
// draw in [0.5, 1.0] so a fleet of failed tasks does not retry in lockstep.
struct RetryPolicy {
  size_t max_attempts = 1;  // total attempts per task (1 = never retry)
  double backoff_base_ms = 25.0;
  double backoff_cap_ms = 2000.0;
  uint64_t jitter_seed = 1;
};

// Pure function of (policy, task, attempt): the delay slept before retry
// `attempt` (1-based) of task `task`. Deterministic for tests.
double backoff_delay_ms(const RetryPolicy& policy, uint64_t task,
                        uint64_t attempt);

class SweepRunner {
 public:
  // jobs == 0 means default_jobs().
  explicit SweepRunner(size_t jobs = 0)
      : jobs_(jobs == 0 ? default_jobs() : jobs) {}

  size_t jobs() const { return jobs_; }

  // Runs fn(i) for every i in [0, n), in parallel, and returns the results
  // ordered by index. R must be default-constructible and movable. The
  // first task exception cancels scheduling of not-yet-started tasks and is
  // rethrown on the calling thread after the pool drains.
  template <typename Fn>
  auto map(size_t n, Fn&& fn) -> std::vector<decltype(fn(size_t{}))> {
    std::vector<decltype(fn(size_t{}))> results(n);
    run_indexed(n, [&](size_t i) { results[i] = fn(i); });
    return results;
  }

  // Isolated execution: fn(i) returns a TaskStatus (or void, meaning kOk on
  // normal return) and may throw. Every exception is caught in the worker,
  // the task is retried per `policy`, and the final disposition lands in
  // the returned index-ordered outcome vector — the sweep itself never
  // throws. With fail_fast, the first non-ok outcome stops *scheduling*:
  // already-running siblings finish, unstarted tasks stay kSkipped.
  template <typename Fn>
  std::vector<TaskOutcome> run_tasks(size_t n, Fn&& fn,
                                     const RetryPolicy& policy = {},
                                     bool fail_fast = false) {
    std::vector<TaskOutcome> outcomes(n);
    std::atomic<bool> cancelled{false};
    auto body = [&](size_t i) {
      TaskOutcome& out = outcomes[i];
      for (uint32_t attempt = 1;; ++attempt) {
        out.attempts = attempt;
        try {
          if constexpr (std::is_void_v<decltype(fn(size_t{}))>) {
            fn(i);
            out.status = TaskStatus::kOk;
          } else {
            out.status = fn(i);
          }
          out.error.clear();
          break;
        } catch (const std::exception& e) {
          out.status = TaskStatus::kFailed;
          out.error = e.what();
        } catch (...) {
          out.status = TaskStatus::kFailed;
          out.error = "unknown exception";
        }
        if (attempt >= policy.max_attempts) break;
        sleep_ms(backoff_delay_ms(policy, i, attempt));
      }
      if (fail_fast && !out.ok()) cancelled.store(true);
    };
    run_cancellable(n, cancelled, body);
    return outcomes;
  }

 private:
  static void sleep_ms(double ms);

  // Pulls indices until exhausted or `cancelled`; body(i) must not throw.
  template <typename Body>
  void run_cancellable(size_t n, std::atomic<bool>& cancelled, Body&& body) {
    const size_t workers = jobs_ < n ? jobs_ : n;
    if (workers <= 1) {
      for (size_t i = 0; i < n && !cancelled.load(); ++i) body(i);
      return;
    }
    std::atomic<size_t> next{0};
    auto worker = [&] {
      for (;;) {
        if (cancelled.load(std::memory_order_relaxed)) return;
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        body(i);
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers - 1);
    for (size_t w = 1; w < workers; ++w) pool.emplace_back(worker);
    worker();  // the calling thread is worker 0
    for (std::thread& t : pool) t.join();
  }

  // Fail-fast core for map(): the first exception is captured, cancels
  // further scheduling, and is rethrown after the drain.
  template <typename Body>
  void run_indexed(size_t n, Body&& body) {
    const size_t workers = jobs_ < n ? jobs_ : n;
    if (workers <= 1) {
      for (size_t i = 0; i < n; ++i) body(i);
      return;
    }
    std::atomic<bool> cancelled{false};
    std::exception_ptr first_error;
    std::mutex error_mu;
    auto guarded = [&](size_t i) {
      try {
        body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
        cancelled.store(true);
      }
    };
    run_cancellable(n, cancelled, guarded);
    if (first_error) std::rethrow_exception(first_error);
  }

  size_t jobs_;
};

}  // namespace xpass::exec
