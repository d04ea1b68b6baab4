// SweepRunner and task_seed: deterministic fan-out regardless of worker
// count. The key property the benches rely on is that a sweep's serialized
// output is byte-identical at --jobs 1, 4, and 8.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/sweep_runner.hpp"
#include "net/topology_builders.hpp"
#include "runner/flow_driver.hpp"
#include "runner/protocols.hpp"

namespace {

using namespace xpass;
using sim::Time;

TEST(TaskSeed, DeterministicAndDistinct) {
  const uint64_t base = 12345;
  std::vector<uint64_t> seeds;
  for (uint64_t i = 0; i < 64; ++i) {
    const uint64_t s = exec::task_seed(base, i);
    EXPECT_EQ(s, exec::task_seed(base, i)) << "not deterministic at " << i;
    for (size_t j = 0; j < seeds.size(); ++j) {
      EXPECT_NE(s, seeds[j]) << "collision between tasks " << i << ", " << j;
    }
    seeds.push_back(s);
  }
  // Task 0 must not reuse the raw base seed: a sweep's first run should not
  // silently alias a non-sweep run of the same scenario.
  EXPECT_NE(exec::task_seed(base, 0), base);
  // Different bases decorrelate.
  EXPECT_NE(exec::task_seed(base, 0), exec::task_seed(base + 1, 0));
}

TEST(SweepRunner, MapPreservesTaskOrder) {
  exec::SweepRunner pool(8);
  const auto out = pool.map(100, [](size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 100u);
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(SweepRunner, InlineWhenSingleJob) {
  exec::SweepRunner pool(1);
  EXPECT_EQ(pool.jobs(), 1u);
  std::atomic<int> calls{0};
  const auto threads = pool.map(10, [&](size_t) {
    ++calls;
    return std::this_thread::get_id();
  });
  EXPECT_EQ(calls.load(), 10);
  for (const std::thread::id t : threads) {
    EXPECT_EQ(t, std::this_thread::get_id());
  }
}

TEST(SweepRunner, ExceptionPropagatesToCaller) {
  exec::SweepRunner pool(4);
  EXPECT_THROW(pool.map(16,
                        [](size_t i) {
                          if (i == 3) throw std::runtime_error("task 3");
                          return i;
                        }),
               std::runtime_error);
}

// One sweep task: a short ExpressPass dumbbell run whose flow arrivals are
// drawn from the task seed. Returns a fixed-format row of per-flow stats.
std::string run_cell(uint64_t seed) {
  sim::Simulator sim(seed);
  net::Topology topo(sim);
  const auto link = runner::protocol_link_config(
      runner::Protocol::kExpressPass, 10e9, Time::us(1));
  auto d = net::build_dumbbell(topo, 4, link, link);
  auto t = runner::make_transport(runner::Protocol::kExpressPass, sim, topo,
                                  Time::us(100));
  runner::FlowDriver driver(sim, *t);
  for (uint32_t i = 1; i <= 4; ++i) {
    transport::FlowSpec s;
    s.id = i;
    s.src = d.senders[i - 1];
    s.dst = d.receivers[i - 1];
    s.size_bytes = transport::kLongRunning;
    s.start_time = Time::seconds(sim.rng().uniform(0.0, 1e-3));
    driver.add(s);
  }
  sim.run_until(Time::ms(5));
  driver.rates().snapshot_rates_by_flow(Time::ms(5));
  sim.run_until(Time::ms(10));
  auto rates = driver.rates().snapshot_rates_by_flow(Time::ms(5));
  std::string out;
  char buf[96];
  for (uint32_t id = 1; id <= 4; ++id) {
    std::snprintf(buf, sizeof buf, "%u:%.17g ", id, rates[id]);
    out += buf;
  }
  std::snprintf(buf, sizeof buf, "ev:%llu drops:%llu",
                static_cast<unsigned long long>(sim.events().fired()),
                static_cast<unsigned long long>(topo.data_drops()));
  out += buf;
  driver.stop_all();
  return out;
}

TEST(RunTasks, CapturesOutcomePerTaskInsteadOfThrowing) {
  exec::SweepRunner pool(4);
  const auto outcomes = pool.run_tasks(8, [](size_t i) {
    if (i == 2) throw std::runtime_error("task 2 exploded");
    if (i == 5) throw 42;  // non-std exception
  });
  ASSERT_EQ(outcomes.size(), 8u);
  for (size_t i = 0; i < outcomes.size(); ++i) {
    if (i == 2 || i == 5) {
      EXPECT_EQ(outcomes[i].status, exec::TaskStatus::kFailed);
      EXPECT_EQ(outcomes[i].attempts, 1u);
      EXPECT_FALSE(outcomes[i].error.empty());
    } else {
      EXPECT_TRUE(outcomes[i].ok());
      EXPECT_EQ(outcomes[i].attempts, 1u);
    }
  }
  EXPECT_NE(outcomes[2].error.find("task 2 exploded"), std::string::npos);
}

TEST(RunTasks, ReturnedStatusIsRespected) {
  exec::SweepRunner pool(1);
  const auto outcomes = pool.run_tasks(3, [](size_t i) {
    return i == 1 ? exec::TaskStatus::kOverBudget : exec::TaskStatus::kOk;
  });
  EXPECT_EQ(outcomes[0].status, exec::TaskStatus::kOk);
  EXPECT_EQ(outcomes[1].status, exec::TaskStatus::kOverBudget);
  EXPECT_EQ(outcomes[2].status, exec::TaskStatus::kOk);
}

TEST(RunTasks, RetriesTransientFailuresWithAttemptCount) {
  exec::SweepRunner pool(2);
  std::atomic<int> task3_attempts{0};
  exec::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_base_ms = 0;  // no sleeping in tests
  const auto outcomes = pool.run_tasks(
      6,
      [&](size_t i) {
        // Task 3 fails twice, then succeeds on the third attempt.
        if (i == 3 && task3_attempts.fetch_add(1) < 2) {
          throw std::runtime_error("transient");
        }
      },
      policy);
  EXPECT_TRUE(outcomes[3].ok());
  EXPECT_EQ(outcomes[3].attempts, 3u);
  EXPECT_EQ(task3_attempts.load(), 3);
  for (size_t i = 0; i < 6; ++i) {
    if (i != 3) {
      EXPECT_EQ(outcomes[i].attempts, 1u);
    }
  }
}

TEST(RunTasks, DeterministicFailureExhaustsAllAttempts) {
  exec::SweepRunner pool(1);
  exec::RetryPolicy policy;
  policy.max_attempts = 4;
  policy.backoff_base_ms = 0;
  const auto outcomes =
      pool.run_tasks(1, [](size_t) { throw std::runtime_error("always"); },
                     policy);
  EXPECT_EQ(outcomes[0].status, exec::TaskStatus::kFailed);
  EXPECT_EQ(outcomes[0].attempts, 4u);
}

TEST(RunTasks, FailFastSkipsUnscheduledTail) {
  exec::SweepRunner pool(1);  // sequential: the skip set is deterministic
  std::atomic<int> executed{0};
  const auto outcomes = pool.run_tasks(
      5,
      [&](size_t i) {
        ++executed;
        if (i == 1) throw std::runtime_error("stop the line");
      },
      exec::RetryPolicy{}, /*fail_fast=*/true);
  EXPECT_EQ(executed.load(), 2);  // tasks 0 and 1 ran, then cancellation
  EXPECT_TRUE(outcomes[0].ok());
  EXPECT_EQ(outcomes[1].status, exec::TaskStatus::kFailed);
  for (size_t i = 2; i < 5; ++i) {
    EXPECT_EQ(outcomes[i].status, exec::TaskStatus::kSkipped);
    EXPECT_EQ(outcomes[i].attempts, 0u);
  }
}

TEST(RunTasks, DefaultModeRunsToCompletionPastFailures) {
  exec::SweepRunner pool(4);
  std::atomic<int> executed{0};
  const auto outcomes = pool.run_tasks(12, [&](size_t i) {
    ++executed;
    if (i % 3 == 0) throw std::runtime_error("sporadic");
  });
  EXPECT_EQ(executed.load(), 12);  // nothing skipped
  size_t failed = 0;
  for (const auto& o : outcomes) {
    failed += o.status == exec::TaskStatus::kFailed ? 1 : 0;
  }
  EXPECT_EQ(failed, 4u);
}

TEST(Backoff, DeterministicDoublingWithBoundedJitter) {
  exec::RetryPolicy policy;
  policy.backoff_base_ms = 25;
  policy.backoff_cap_ms = 200;
  policy.jitter_seed = 7;
  // Attempt 0 (the first try) never sleeps.
  EXPECT_EQ(exec::backoff_delay_ms(policy, 0, 0), 0.0);
  double prev_nominal = 0;
  for (size_t attempt = 1; attempt <= 6; ++attempt) {
    const double d = exec::backoff_delay_ms(policy, 3, attempt);
    // Deterministic: same (policy, task, attempt) -> same delay.
    EXPECT_EQ(d, exec::backoff_delay_ms(policy, 3, attempt));
    // Jitter keeps the delay within [0.5, 1.0] x the nominal exponential.
    const double nominal =
        std::min(25.0 * static_cast<double>(1ull << (attempt - 1)), 200.0);
    EXPECT_GE(d, 0.5 * nominal) << "attempt " << attempt;
    EXPECT_LE(d, nominal) << "attempt " << attempt;
    EXPECT_GE(nominal, prev_nominal);  // monotone until the cap
    prev_nominal = nominal;
  }
  // Different tasks decorrelate (thundering-herd protection).
  EXPECT_NE(exec::backoff_delay_ms(policy, 1, 1),
            exec::backoff_delay_ms(policy, 2, 1));
  // Disabled backoff never sleeps.
  policy.backoff_base_ms = 0;
  EXPECT_EQ(exec::backoff_delay_ms(policy, 3, 4), 0.0);
}

TEST(TaskStatus, NamesAreStable) {
  EXPECT_EQ(exec::task_status_name(exec::TaskStatus::kOk), "ok");
  EXPECT_EQ(exec::task_status_name(exec::TaskStatus::kFailed), "failed");
  EXPECT_EQ(exec::task_status_name(exec::TaskStatus::kTimedOut), "timed-out");
  EXPECT_EQ(exec::task_status_name(exec::TaskStatus::kOverBudget),
            "over-budget");
  EXPECT_EQ(exec::task_status_name(exec::TaskStatus::kSkipped), "skipped");
}

TEST(SweepRunner, ByteIdenticalStatsAcrossJobCounts) {
  const uint64_t base = 29;
  const size_t n_tasks = 6;
  auto sweep = [&](size_t jobs) {
    exec::SweepRunner pool(jobs);
    const auto rows = pool.map(
        n_tasks, [&](size_t i) { return run_cell(exec::task_seed(base, i)); });
    std::string all;
    for (const auto& r : rows) {
      all += r;
      all += '\n';
    }
    return all;
  };
  const std::string serial = sweep(1);
  EXPECT_EQ(serial, sweep(4));
  EXPECT_EQ(serial, sweep(8));
}

}  // namespace
