// ExpressPass end-to-end behavior: state machine, zero loss, fast
// convergence and credit-waste accounting. The sender it shares with SIRD
// (loss recovery, request backoff, CREDIT_STOP re-send, release teardown)
// is tested under both protocols in tests/transport/credit_sched_test.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/expresspass.hpp"
#include "net/topology_builders.hpp"
#include "runner/flow_driver.hpp"
#include "runner/protocols.hpp"

namespace {

using namespace xpass;
using sim::Time;

struct Env {
  sim::Simulator sim;
  net::Topology topo{sim};
  net::Dumbbell d;

  explicit Env(size_t pairs = 2, double rate = 10e9, uint64_t seed = 31)
      : sim(seed) {
    const auto link = runner::protocol_link_config(
        runner::Protocol::kExpressPass, rate, Time::us(1));
    d = net::build_dumbbell(topo, pairs, link, link);
  }

  transport::FlowSpec spec(uint32_t id, uint64_t bytes,
                           Time start = Time::zero()) {
    transport::FlowSpec s;
    s.id = id;
    s.src = d.senders[(id - 1) % d.senders.size()];
    s.dst = d.receivers[(id - 1) % d.receivers.size()];
    s.size_bytes = bytes;
    s.start_time = start;
    return s;
  }
};

core::ExpressPassConfig default_cfg() {
  core::ExpressPassConfig cfg;
  cfg.update_period = Time::us(100);
  return cfg;
}

TEST(ExpressPass, FlowCompletesWithZeroDataLoss) {
  Env env;
  core::ExpressPassTransport t(env.sim, default_cfg());
  runner::FlowDriver driver(env.sim, t);
  driver.add(env.spec(1, 10'000'000));
  ASSERT_TRUE(driver.run_to_completion(Time::sec(1)));
  EXPECT_EQ(env.topo.data_drops(), 0u);
  EXPECT_EQ(driver.connections()[0]->delivered_bytes(), 10'000'000u);
}

TEST(ExpressPass, DataStartsOnlyAfterCredit) {
  // The receiver-driven handshake: data throughput in the first RTT is zero.
  Env env;
  core::ExpressPassTransport t(env.sim, default_cfg());
  runner::FlowDriver driver(env.sim, t);
  driver.add(env.spec(1, 1'000'000));
  env.sim.run_until(Time::us(4));  // less than one RTT (~10us)
  EXPECT_EQ(driver.connections()[0]->delivered_bytes(), 0u);
  ASSERT_TRUE(driver.run_to_completion(Time::sec(1)));
}

TEST(ExpressPass, CreditStopEndsCreditFlow) {
  Env env;
  core::ExpressPassTransport t(env.sim, default_cfg());
  runner::FlowDriver driver(env.sim, t);
  driver.add(env.spec(1, 100'000));
  ASSERT_TRUE(driver.run_to_completion(Time::sec(1)));
  auto* c = dynamic_cast<core::ExpressPassConnection*>(
      driver.connections()[0].get());
  const uint64_t sent_at_completion = c->credits_sent();
  // Run on: after CREDIT_STOP propagates, no further credits are sent.
  env.sim.run_until(env.sim.now() + Time::ms(5));
  EXPECT_LE(c->credits_sent(), sent_at_completion + 20);
}

TEST(ExpressPass, SinglePacketFlowWastesCreditsPerFig8) {
  // A 1-packet flow at alpha=1/2 wastes the rest of the first-RTT credit
  // burst (Fig 8b).
  Env env;
  auto cfg = default_cfg();
  cfg.alpha_init = 0.5;
  core::ExpressPassTransport t(env.sim, cfg);
  runner::FlowDriver driver(env.sim, t);
  driver.add(env.spec(1, 1000));
  ASSERT_TRUE(driver.run_to_completion(Time::sec(1)));
  env.sim.run_until(env.sim.now() + Time::ms(2));
  auto* c = dynamic_cast<core::ExpressPassConnection*>(
      driver.connections()[0].get());
  EXPECT_GT(c->credits_wasted() + env.topo.stray_credits(), 0u);
}

TEST(ExpressPass, LowerInitialRateWastesFewerCredits) {
  auto run_with_alpha = [](double alpha) {
    Env env;
    auto cfg = default_cfg();
    cfg.alpha_init = alpha;
    core::ExpressPassTransport t(env.sim, cfg);
    runner::FlowDriver driver(env.sim, t);
    driver.add(env.spec(1, 1000));
    driver.run_to_completion(Time::sec(1));
    env.sim.run_until(env.sim.now() + Time::ms(2));
    auto* c = dynamic_cast<core::ExpressPassConnection*>(
        driver.connections()[0].get());
    return c->credits_wasted() + env.topo.stray_credits();
  };
  EXPECT_LT(run_with_alpha(1.0 / 16), run_with_alpha(1.0 / 2));
}

TEST(ExpressPass, TwoFlowsConvergeToFairShare) {
  Env env;
  core::ExpressPassTransport t(env.sim, default_cfg());
  runner::FlowDriver driver(env.sim, t);
  driver.add(env.spec(1, transport::kLongRunning));
  driver.add(env.spec(2, transport::kLongRunning, Time::ms(1)));
  env.sim.run_until(Time::ms(4));
  driver.rates().snapshot_rates_by_flow(Time::ms(4));
  env.sim.run_until(Time::ms(6));
  auto rates = driver.rates().snapshot_rates_by_flow(Time::ms(2));
  EXPECT_NEAR(rates[1] / 1e9, rates[2] / 1e9, 1.6);
  EXPECT_GT((rates[1] + rates[2]) / 1e9, 8.0);
  driver.stop_all();
}

TEST(ExpressPass, ConvergenceWithinAFewRtts) {
  // Fig 16: a flow joining an occupied link reaches ~fair share in ~3 RTTs
  // (update periods). How fast any single run converges depends on the
  // luck of its credit drops — a rare trajectory where the joiner's first
  // few credit bursts lose the shaper race can take several times longer —
  // so assert the median over three seeds rather than pinning one stream.
  std::vector<int> periods;
  for (uint64_t seed : {31u, 32u, 33u}) {
    Env env(2, 10e9, seed);
    core::ExpressPassTransport t(env.sim, default_cfg());
    runner::FlowDriver driver(env.sim, t);
    driver.add(env.spec(1, transport::kLongRunning));
    env.sim.run_until(Time::ms(2));  // flow 1 owns the link
    driver.add(env.spec(2, transport::kLongRunning, Time::ms(2)));
    // Measure flow 2's rate over RTT windows after it starts.
    driver.rates().snapshot_rates_by_flow(Time::ms(2));
    int periods_to_converge = -1;
    for (int k = 1; k <= 40; ++k) {
      env.sim.run_until(Time::ms(2) + Time::us(100 * k));
      auto r = driver.rates().snapshot_rates_by_flow(Time::us(100));
      if (r[2] > 0.35 * 9.5e9) {  // within ~70% of fair share (4.75G)
        periods_to_converge = k;
        break;
      }
    }
    ASSERT_NE(periods_to_converge, -1);
    periods.push_back(periods_to_converge);
    driver.stop_all();
  }
  std::sort(periods.begin(), periods.end());
  EXPECT_LE(periods[1], 8);  // median of three
}

TEST(ExpressPass, NaiveModeSendsAtMaxRate) {
  Env env;
  auto cfg = default_cfg();
  cfg.naive = true;
  core::ExpressPassTransport t(env.sim, cfg);
  EXPECT_EQ(t.name(), "ExpressPass-naive");
  runner::FlowDriver driver(env.sim, t);
  driver.add(env.spec(1, transport::kLongRunning));
  env.sim.run_until(Time::ms(2));
  auto rates = driver.rates().snapshot_rates_by_flow(Time::ms(2));
  EXPECT_GT(rates[1] / 1e9, 8.5);  // full data rate from the first RTT
  driver.stop_all();
}

TEST(ExpressPass, BoundedQueueUnderManyFlows) {
  Env env(16);
  core::ExpressPassTransport t(env.sim, default_cfg());
  runner::FlowDriver driver(env.sim, t);
  for (uint32_t i = 1; i <= 16; ++i) {
    driver.add(env.spec(i, transport::kLongRunning, Time::us(7 * i)));
  }
  env.sim.run_until(Time::ms(20));
  EXPECT_EQ(env.topo.data_drops(), 0u);
  // Fig 15f: ExpressPass max queue stays ~1-2 packets in ns-2.
  EXPECT_LT(env.topo.max_switch_data_queue_bytes(), 20 * net::kMaxWireBytes);
  driver.stop_all();
}

TEST(ExpressPass, CreditSequenceEchoDetectsLoss) {
  // With 2 competing naive flows, ~half the credits drop; the feedback of a
  // non-naive flow must measure roughly that.
  Env env;
  auto cfg = default_cfg();
  core::ExpressPassTransport t(env.sim, cfg);
  runner::FlowDriver driver(env.sim, t);
  driver.add(env.spec(1, transport::kLongRunning));
  driver.add(env.spec(2, transport::kLongRunning));
  env.sim.run_until(Time::ms(10));
  // Aggregate: sum of current credit rates should hover near the inflated
  // max rate (C), not 2x of it.
  auto* c1 = dynamic_cast<core::ExpressPassConnection*>(
      driver.connections()[0].get());
  auto* c2 = dynamic_cast<core::ExpressPassConnection*>(
      driver.connections()[1].get());
  const double sum = c1->credit_rate_bps() + c2->credit_rate_bps();
  EXPECT_LT(sum, 10e9 * 1.4);
  EXPECT_GT(sum, 10e9 * 0.7);
  driver.stop_all();
}

TEST(ExpressPass, RequestRetriesUntilCreditArrives) {
  // Fig 7a: the CREQ_SENT state re-sends requests on timeout. Sanity-check
  // a flow starting before its path is idle still completes.
  Env env;
  auto cfg = default_cfg();
  cfg.request_timeout = Time::us(200);
  core::ExpressPassTransport t(env.sim, cfg);
  runner::FlowDriver driver(env.sim, t);
  driver.add(env.spec(1, 50'000));
  ASSERT_TRUE(driver.run_to_completion(Time::ms(50)));
}

TEST(ExpressPass, HostDelayModelShiftsData) {
  Env env;
  for (auto* h : env.topo.hosts()) {
    h->set_delay_model(net::HostDelayModel::testbed());
  }
  core::ExpressPassTransport t(env.sim, default_cfg());
  runner::FlowDriver driver(env.sim, t);
  driver.add(env.spec(1, 5'000'000));
  ASSERT_TRUE(driver.run_to_completion(Time::sec(1)));
  EXPECT_EQ(env.topo.data_drops(), 0u);
}

TEST(ExpressPass, RetransmittedRequestAfterStopDoesNotRestartCredits) {
  // Regression: a SYN/CREDIT_REQUEST retransmission arriving after
  // CREDIT_STOP (or after the FIN-complete early stop) restarted crediting
  // for a finished flow, pacing credits at a dead sender forever.
  Env env;
  core::ExpressPassTransport t(env.sim, default_cfg());
  runner::FlowDriver driver(env.sim, t);
  driver.add(env.spec(1, 100'000));
  ASSERT_TRUE(driver.run_to_completion(Time::sec(1)));
  // Let CREDIT_STOP and in-flight credits drain.
  env.sim.run_until(env.sim.now() + Time::ms(5));
  auto* c = dynamic_cast<core::ExpressPassConnection*>(
      driver.connections()[0].get());
  const uint64_t sent_before = c->credits_sent();
  // A stale retransmitted credit request arrives at the receiver.
  env.d.senders[0]->send(net::make_control(net::PktType::kSyn, 1,
                                           env.d.senders[0]->id(),
                                           env.d.receivers[0]->id()));
  env.sim.run_until(env.sim.now() + Time::ms(5));
  EXPECT_EQ(c->credits_sent(), sent_before);
}

TEST(ExpressPass, CreditEchoGapAccountingIsExact) {
  // Unit-level check of the credit-loss signal (§3.2): inject crafted data
  // packets with skipping echoed credit sequences straight at the receiver
  // and verify the detected-loss ledger to the credit.
  Env env;
  core::ExpressPassTransport t(env.sim, default_cfg());
  auto conn = t.create(env.spec(1, transport::kLongRunning));
  // Quarantine the real sender so no genuine data pollutes the count: its
  // NIC is drain-failed before the SYN can escape, so crediting never
  // starts and only our hand-built frames reach the receiver.
  env.d.senders[0]->nic().fail(net::LinkFailMode::kDrain);
  conn->start();
  env.sim.run_until(Time::us(10));
  auto* c = dynamic_cast<core::ExpressPassConnection*>(conn.get());
  ASSERT_EQ(c->credits_detected_lost(), 0u);

  auto inject = [&](uint64_t echo_seq, uint64_t data_seq) {
    net::Packet p = net::make_data(1, env.d.senders[1]->id(),
                                   env.d.receivers[0]->id(), data_seq, 1000);
    p.ack = echo_seq;  // echoed credit sequence
    env.d.senders[1]->send(std::move(p));
    env.sim.run_until(env.sim.now() + Time::us(10));
  };
  inject(3, 0);  // credits 0..2 preceded the first echo: +3
  EXPECT_EQ(c->credits_detected_lost(), 3u);
  inject(5, 1000);  // gap of one (credit 4): +1
  EXPECT_EQ(c->credits_detected_lost(), 4u);
  inject(5, 2000);  // duplicate echo: no change
  inject(4, 3000);  // reordered (stale) echo: no change
  EXPECT_EQ(c->credits_detected_lost(), 4u);
  inject(9, 4000);  // credits 6,7,8 lost: +3
  EXPECT_EQ(c->credits_detected_lost(), 7u);
}

TEST(ExpressPass, HundredGigLink) {
  Env env(2, 100e9);
  auto cfg = default_cfg();
  core::ExpressPassTransport t(env.sim, cfg);
  runner::FlowDriver driver(env.sim, t);
  driver.add(env.spec(1, 50'000'000));
  ASSERT_TRUE(driver.run_to_completion(Time::sec(1)));
  EXPECT_EQ(env.topo.data_drops(), 0u);
  const double gbps =
      50e6 * 8.0 / driver.connections()[0]->fct().to_sec() / 1e9;
  EXPECT_GT(gbps, 60.0);
}

}  // namespace
