#include "sim/fault_plan.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "sim/simulator.hpp"

namespace xpass::sim {
namespace {

TEST(FaultPlan, FiresActionsAtScheduledTimes) {
  Simulator sim;
  FaultPlan plan;
  std::vector<Time> fired_at;
  plan.at(Time::us(10), "a", [&] { fired_at.push_back(sim.now()); });
  plan.at(Time::us(5), "b", [&] { fired_at.push_back(sim.now()); });
  plan.arm(sim);
  sim.run_until(Time::us(20));
  ASSERT_EQ(fired_at.size(), 2u);
  EXPECT_EQ(fired_at[0], Time::us(5));
  EXPECT_EQ(fired_at[1], Time::us(10));
  EXPECT_EQ(plan.fired(), 2u);
}

TEST(FaultPlan, WindowTracksActiveCount) {
  Simulator sim;
  FaultPlan plan;
  plan.window(Time::us(10), Time::us(30), "outage", nullptr, nullptr);
  plan.arm(sim);
  EXPECT_FALSE(plan.any_fault_active());
  sim.run_until(Time::us(20));
  EXPECT_TRUE(plan.any_fault_active());
  EXPECT_EQ(plan.active_windows(), 1);
  sim.run_until(Time::us(40));
  EXPECT_FALSE(plan.any_fault_active());
  EXPECT_TRUE(plan.any_fault_fired());
}

TEST(FaultPlan, PermanentWindowNeverCloses) {
  Simulator sim;
  FaultPlan plan;
  int exits = 0;
  plan.window(Time::us(10), Time::max(), "death", nullptr, [&] { ++exits; });
  plan.arm(sim);
  sim.run_until(Time::ms(10));
  EXPECT_TRUE(plan.any_fault_active());
  EXPECT_EQ(exits, 0);  // exit action discarded for permanent faults
}

TEST(FaultPlan, OverlappingWindowsRefcount) {
  Simulator sim;
  FaultPlan plan;
  plan.window(Time::us(10), Time::us(40), "w1", nullptr, nullptr);
  plan.window(Time::us(20), Time::us(30), "w2", nullptr, nullptr);
  plan.arm(sim);
  sim.run_until(Time::us(25));
  EXPECT_EQ(plan.active_windows(), 2);
  sim.run_until(Time::us(35));
  EXPECT_EQ(plan.active_windows(), 1);
  sim.run_until(Time::us(45));
  EXPECT_EQ(plan.active_windows(), 0);
}

}  // namespace
}  // namespace xpass::sim
