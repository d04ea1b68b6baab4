#include "sim/invariants.hpp"

#include <gtest/gtest.h>

#include <string>

#include "sim/simulator.hpp"

namespace xpass::sim {
namespace {

TEST(Invariants, PeriodicSweepRunsRegisteredChecks) {
  Simulator sim;
  InvariantChecker chk(sim);
  int calls = 0;
  chk.add_check("counter", [&] {
    ++calls;
    return std::string();
  });
  chk.start(Time::us(100));
  sim.run_until(Time::ms(1));
  EXPECT_EQ(chk.sweeps(), 10u);
  EXPECT_EQ(calls, 10);
  EXPECT_EQ(chk.violations(), 0u);
}

TEST(Invariants, FailingCheckCountsAndRecordsMessage) {
  Simulator sim;
  InvariantChecker chk(sim);
  bool broken = false;
  chk.add_check("sometimes", [&] {
    return broken ? std::string("the invariant broke") : std::string();
  });
  chk.start(Time::us(100));
  sim.run_until(Time::us(350));
  EXPECT_EQ(chk.violations(), 0u);
  broken = true;
  sim.run_until(Time::us(550));
  EXPECT_EQ(chk.violations(), 2u);
  ASSERT_FALSE(chk.messages().empty());
  EXPECT_NE(chk.messages()[0].find("sometimes"), std::string::npos);
  EXPECT_NE(chk.messages()[0].find("the invariant broke"), std::string::npos);
}

TEST(Invariants, ReportIsImmediate) {
  Simulator sim;
  InvariantChecker chk(sim);
  chk.report("instrumented-path", "saw a negative queue");
  EXPECT_EQ(chk.violations(), 1u);
  ASSERT_EQ(chk.messages().size(), 1u);
  EXPECT_NE(chk.messages()[0].find("instrumented-path"), std::string::npos);
}

TEST(Invariants, StopEndsSweeps) {
  Simulator sim;
  InvariantChecker chk(sim);
  chk.add_check("noop", [] { return std::string(); });
  chk.start(Time::us(100));
  sim.run_until(Time::us(250));
  chk.stop();
  sim.run_until(Time::ms(2));
  EXPECT_EQ(chk.sweeps(), 2u);
}

TEST(Invariants, MessageCapBoundsMemory) {
  Simulator sim;
  InvariantChecker chk(sim);
  for (int i = 0; i < 100; ++i) chk.report("flood", "again");
  EXPECT_EQ(chk.violations(), 100u);
  EXPECT_LE(chk.messages().size(), 32u);
}

}  // namespace
}  // namespace xpass::sim
