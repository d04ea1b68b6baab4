#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "runner/args.hpp"

namespace {

using xpass::runner::Args;

// Builds argv from a token list (argv[0] is the program name).
struct Argv {
  explicit Argv(std::vector<std::string> tokens) : store(std::move(tokens)) {
    store.insert(store.begin(), "prog");
    for (std::string& s : store) ptrs.push_back(s.data());
  }
  int argc() { return static_cast<int>(ptrs.size()); }
  char** argv() { return ptrs.data(); }
  std::vector<std::string> store;
  std::vector<char*> ptrs;
};

TEST(Args, EqualsAndSpaceFormsAreEquivalent) {
  for (auto tokens : {std::vector<std::string>{"--jobs=7"},
                      std::vector<std::string>{"--jobs", "7"}}) {
    Argv a(tokens);
    Args args(a.argc(), a.argv());
    EXPECT_EQ(args.jobs(), 7u);
    EXPECT_TRUE(args.ok()) << args.error();
    EXPECT_TRUE(args.positional().empty());
  }
}

TEST(Args, MalformedJobsIsAnError) {
  for (auto tokens : {std::vector<std::string>{"--jobs", "garbage"},
                      std::vector<std::string>{"--jobs=garbage"},
                      std::vector<std::string>{"--jobs=-3"},
                      std::vector<std::string>{"--jobs"},
                      std::vector<std::string>{"--jobs="}}) {
    Argv a(tokens);
    Args args(a.argc(), a.argv());
    EXPECT_EQ(args.jobs(), 0u);
    EXPECT_FALSE(args.ok()) << "accepted: " << tokens[0];
    EXPECT_NE(args.error().find("--jobs"), std::string::npos);
  }
}

TEST(Args, ExplicitJobsZeroIsAnError) {
  Argv a({"--jobs", "0"});
  Args args(a.argc(), a.argv());
  args.jobs();
  EXPECT_FALSE(args.ok());
}

TEST(Args, AbsentJobsMeansDefault) {
  Argv a({});
  Args args(a.argc(), a.argv());
  EXPECT_EQ(args.jobs(), 0u);
  EXPECT_TRUE(args.ok());
}

TEST(Args, RunsRequiresAtLeastOne) {
  {
    Argv a({"--runs=3"});
    Args args(a.argc(), a.argv());
    EXPECT_EQ(args.runs(), 3u);
    EXPECT_TRUE(args.ok());
  }
  {
    Argv a({"--runs=0"});
    Args args(a.argc(), a.argv());
    EXPECT_EQ(args.runs(), 1u);
    EXPECT_FALSE(args.ok());
  }
}

TEST(Args, NumericValidation) {
  Argv a({"--seed=12", "--load", "0.6", "--rate", "nope"});
  Args args(a.argc(), a.argv());
  EXPECT_EQ(args.u64("seed", 1), 12u);
  EXPECT_DOUBLE_EQ(args.f64("load", 0.0), 0.6);
  EXPECT_DOUBLE_EQ(args.f64("rate", 10.0), 10.0);  // fallback on malformed
  EXPECT_FALSE(args.ok());
  EXPECT_NE(args.error().find("--rate"), std::string::npos);
}

TEST(Args, NegativeU64IsAnErrorNotAWraparound) {
  // strtoull would happily parse "-1" as 2^64-1; the parser must refuse it
  // instead of handing a bench 18 quintillion flows.
  for (auto tokens : {std::vector<std::string>{"--seed=-1"},
                      std::vector<std::string>{"--seed", "-12"},
                      std::vector<std::string>{"--seed=+-0"}}) {
    Argv a(tokens);
    Args args(a.argc(), a.argv());
    EXPECT_EQ(args.u64("seed", 7), 7u) << tokens[0];
    EXPECT_FALSE(args.ok()) << "accepted: " << tokens[0];
    EXPECT_NE(args.error().find("--seed"), std::string::npos);
  }
}

TEST(Args, U64OverflowIsAnError) {
  // 2^64 and far beyond: out-of-range must fall back + error, not saturate.
  for (auto tokens :
       {std::vector<std::string>{"--seed=18446744073709551616"},
        std::vector<std::string>{"--seed=99999999999999999999999999"}}) {
    Argv a(tokens);
    Args args(a.argc(), a.argv());
    EXPECT_EQ(args.u64("seed", 3), 3u) << tokens[0];
    EXPECT_FALSE(args.ok()) << "accepted: " << tokens[0];
  }
  // The exact maximum is still fine.
  Argv a({"--seed=18446744073709551615"});
  Args args(a.argc(), a.argv());
  EXPECT_EQ(args.u64("seed", 3), 18446744073709551615ull);
  EXPECT_TRUE(args.ok()) << args.error();
}

TEST(Args, U64TrailingGarbageAndEmptyAreErrors) {
  for (auto tokens : {std::vector<std::string>{"--count=12x"},
                      std::vector<std::string>{"--count=0x10"},
                      std::vector<std::string>{"--count="},
                      std::vector<std::string>{"--count", "1 2"}}) {
    Argv a(tokens);
    Args args(a.argc(), a.argv());
    EXPECT_EQ(args.u64("count", 5), 5u) << tokens[0];
    EXPECT_FALSE(args.ok()) << "accepted: " << tokens[0];
  }
}

TEST(Args, F64RejectsNonFinite) {
  // NaN/inf parse as doubles but are not usable knob values; they must be
  // refused like malformed text (the Recorder downstream would reject them
  // anyway — fail at the flag, where the user can see it).
  for (auto tokens : {std::vector<std::string>{"--load=nan"},
                      std::vector<std::string>{"--load=inf"},
                      std::vector<std::string>{"--load=-inf"}}) {
    Argv a(tokens);
    Args args(a.argc(), a.argv());
    EXPECT_DOUBLE_EQ(args.f64("load", 0.25), 0.25) << tokens[0];
    EXPECT_FALSE(args.ok()) << "accepted: " << tokens[0];
  }
}

TEST(Args, TimeoutMsParsesAndRejectsNegative) {
  {
    Argv a({"--timeout-ms=250.5"});
    Args args(a.argc(), a.argv());
    EXPECT_DOUBLE_EQ(args.timeout_ms(), 250.5);
    EXPECT_TRUE(args.ok()) << args.error();
  }
  {
    Argv a({});
    Args args(a.argc(), a.argv());
    EXPECT_DOUBLE_EQ(args.timeout_ms(), 0.0);  // absent = no budget
    EXPECT_TRUE(args.ok());
  }
  for (auto tokens : {std::vector<std::string>{"--timeout-ms=-5"},
                      std::vector<std::string>{"--timeout-ms=nope"},
                      std::vector<std::string>{"--timeout-ms=inf"}}) {
    Argv a(tokens);
    Args args(a.argc(), a.argv());
    EXPECT_DOUBLE_EQ(args.timeout_ms(), 0.0) << tokens[0];
    EXPECT_FALSE(args.ok()) << "accepted: " << tokens[0];
    EXPECT_NE(args.error().find("--timeout-ms"), std::string::npos);
  }
}

TEST(Args, CacheDirWantsANonEmptyPath) {
  {
    Argv a({"--cache-dir", "results/cache"});
    Args args(a.argc(), a.argv());
    auto dir = args.cache_dir();
    ASSERT_TRUE(dir.has_value());
    EXPECT_EQ(*dir, "results/cache");
    EXPECT_TRUE(args.ok()) << args.error();
  }
  {
    Argv a({});
    Args args(a.argc(), a.argv());
    EXPECT_FALSE(args.cache_dir().has_value());  // absent = caching off
    EXPECT_TRUE(args.ok());
  }
  {
    Argv a({"--cache-dir="});
    Args args(a.argc(), a.argv());
    EXPECT_FALSE(args.cache_dir().has_value());
    EXPECT_FALSE(args.ok());
    EXPECT_NE(args.error().find("--cache-dir"), std::string::npos);
  }
}

TEST(Args, ResumeIsABareFlag) {
  {
    Argv a({"--resume"});
    Args args(a.argc(), a.argv());
    EXPECT_TRUE(args.resume());
    EXPECT_TRUE(args.ok()) << args.error();
  }
  {
    Argv a({});
    Args args(a.argc(), a.argv());
    EXPECT_FALSE(args.resume());
    EXPECT_TRUE(args.ok());
  }
  {
    Argv a({"--resume=yes"});  // boolean flags take no value
    Args args(a.argc(), a.argv());
    args.resume();
    EXPECT_FALSE(args.ok());
  }
}

TEST(Args, UnqueriedFlagReportsUnknown) {
  Argv a({"--fulll"});  // typo of --full
  Args args(a.argc(), a.argv());
  EXPECT_FALSE(args.flag("full"));
  EXPECT_NE(args.error().find("unknown flag: --fulll"), std::string::npos);
}

TEST(Args, BooleanFlagWithEqualsValueIsAnError) {
  Argv a({"--full=yes"});
  Args args(a.argc(), a.argv());
  EXPECT_TRUE(args.flag("full"));
  EXPECT_FALSE(args.ok());
}

TEST(Args, BooleanFlagReleasesTrailingTokenToPositionals) {
  // `bench --full 64`: 64 is a positional, not --full's value.
  Argv a({"--full", "64"});
  Args args(a.argc(), a.argv());
  EXPECT_TRUE(args.flag("full"));
  ASSERT_EQ(args.positional().size(), 1u);
  EXPECT_EQ(args.positional()[0], "64");
  EXPECT_TRUE(args.ok());
}

TEST(Args, ReleasedTokenKeepsArgvOrder) {
  // `bench --full a.json b.json`: the released a.json stays the first
  // positional.
  Argv a({"--full", "a.json", "b.json"});
  Args args(a.argc(), a.argv());
  EXPECT_TRUE(args.flag("full"));
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "a.json");
  EXPECT_EQ(args.positional()[1], "b.json");
  EXPECT_TRUE(args.ok());
}

TEST(Args, StrAndPositionals) {
  Argv a({"fanout", "--topology", "clos", "1000"});
  Args args(a.argc(), a.argv());
  auto topo = args.str("topology");
  ASSERT_TRUE(topo.has_value());
  EXPECT_EQ(*topo, "clos");
  ASSERT_EQ(args.positional().size(), 2u);
  EXPECT_EQ(args.positional()[0], "fanout");
  EXPECT_EQ(args.positional()[1], "1000");
  EXPECT_TRUE(args.ok());
}

}  // namespace
