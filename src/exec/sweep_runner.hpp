// SweepRunner: a thread pool for embarrassingly parallel parameter sweeps.
//
// A sweep is N independent simulations (protocol x flow-count grids, seed
// replications, fault matrices). Each task builds its own Simulator, so
// tasks share no mutable state and the only coordination is an atomic work
// counter. Results land in a pre-sized vector at their task index, so the
// reduced output is byte-identical for any worker count — the interleaving
// only affects wall-clock, never content. Per-task seeds come from
// task_seed(base, index), a pure function of the pair.
//
// The first task exception stops workers from scheduling further tasks
// (already-running siblings finish) and is rethrown on the caller after the
// drain. A caller that wants every task to run past failures (a campaign)
// catches inside its task function.
//
// With jobs == 1 (or a single task) everything runs in index order on the
// caller's thread — no pool — which is also the mode the determinism tests
// compare against.
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
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
    std::atomic<bool> cancelled{false};
    std::exception_ptr first_error;
    std::mutex error_mu;
    auto body = [&](size_t i) {
      try {
        results[i] = fn(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
        cancelled.store(true);
      }
    };
    std::atomic<size_t> next{0};
    auto worker = [&] {
      for (;;) {
        if (cancelled.load(std::memory_order_relaxed)) return;
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= n) return;
        body(i);
      }
    };
    const size_t workers = jobs_ < n ? jobs_ : n;
    std::vector<std::thread> pool;
    for (size_t w = 1; w < workers; ++w) pool.emplace_back(worker);
    worker();  // the calling thread is worker 0
    for (std::thread& t : pool) t.join();
    if (first_error) std::rethrow_exception(first_error);
    return results;
  }

 private:
  size_t jobs_;
};

}  // namespace xpass::exec
