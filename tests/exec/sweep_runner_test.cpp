// SweepRunner and task_seed: deterministic fan-out regardless of worker
// count. The key property the benches rely on is that a sweep's serialized
// output is byte-identical at --jobs 1, 4, and 8.
#include <gtest/gtest.h>

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

TEST(SweepRunner, FirstExceptionStopsSchedulingTheTail) {
  exec::SweepRunner pool(1);  // sequential: the unscheduled tail is exact
  std::atomic<int> executed{0};
  EXPECT_THROW(pool.map(6,
                        [&](size_t i) {
                          ++executed;
                          if (i == 2) throw std::runtime_error("task 2");
                          return i;
                        }),
               std::runtime_error);
  EXPECT_EQ(executed.load(), 3);  // tasks 0, 1 and 2 ran; 3..5 never did
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
