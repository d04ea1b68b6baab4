#include <gtest/gtest.h>

#include <string>

#include "net/packet_pool.hpp"
#include "runner/protocols.hpp"
#include "runner/scenario.hpp"

namespace {

using xpass::net::PacketPool;
using xpass::runner::Protocol;
using xpass::runner::protocol_name;
using xpass::runner::ScenarioEngine;
using xpass::runner::ScenarioSpec;
using xpass::runner::StopSpec;
using xpass::runner::TopologyKind;
using xpass::runner::TrafficKind;
using xpass::sim::Time;

constexpr Protocol kAllProtocols[] = {
    Protocol::kExpressPass, Protocol::kExpressPassNaive,
    Protocol::kDctcp,       Protocol::kRcp,
    Protocol::kHull,        Protocol::kDx,
    Protocol::kCubic,       Protocol::kDcqcn,
    Protocol::kTimely,      Protocol::kIdeal,
    Protocol::kSird,        Protocol::kBfc,
    Protocol::kBbr,
};

ScenarioSpec fat_tree_spec(Protocol p) {
  ScenarioSpec s;
  s.protocol = p;
  s.seed = 5;
  s.topology.kind = TopologyKind::kFatTree;
  s.topology.fat_tree_k = 4;
  s.traffic.kind = TrafficKind::kPairwise;
  s.traffic.flows = 8;
  return s;
}

// Every packet a run acquires from the thread's pool is back on the freelist
// once ScenarioEngine::run returns: delivered packets release on arrival,
// and teardown releases whatever is still queued or on the wire. A leak here
// grows the pool without bound across a campaign's runs on one worker.
void expect_pool_conserved(const ScenarioSpec& spec, const std::string& what) {
  const PacketPool& pool = PacketPool::local();
  const size_t before = pool.outstanding();
  ScenarioEngine().run(spec);
  EXPECT_EQ(pool.outstanding(), before)
      << protocol_name(spec.protocol) << " (" << what << ")";
  EXPECT_GT(pool.capacity(), 0u) << protocol_name(spec.protocol);
}

TEST(PacketPoolConservation, RunToCompletion) {
  for (const Protocol p : kAllProtocols) {
    ScenarioSpec spec = fat_tree_spec(p);
    spec.traffic.bytes = 100'000;
    spec.stop = StopSpec::completion(Time::ms(50));
    expect_pool_conserved(spec, "run to completion");
  }
}

TEST(PacketPoolConservation, TruncatedMidFlight) {
  // Long-running flows cut at a 2 ms horizon: queues and wires are full
  // when the run stops, so teardown must reclaim every in-flight slot.
  for (const Protocol p : kAllProtocols) {
    ScenarioSpec spec = fat_tree_spec(p);
    spec.traffic.bytes = xpass::transport::kLongRunning;
    spec.stop = StopSpec::run_for(Time::ms(2));
    expect_pool_conserved(spec, "truncated at 2 ms");
  }
}

}  // namespace
