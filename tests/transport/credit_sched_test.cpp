// The receiver-driven credit framework: the GrantLedger's conservation
// identity and the CreditScheduler's shaped emission pacing in isolation,
// then the CreditedConnection sender run end to end under both protocols
// built on it (ExpressPass and SIRD). Byte-identity of the ExpressPass port
// onto these pieces is proven separately by test_recorder_golden.
#include "transport/credit_sched.hpp"

#include <gtest/gtest.h>

#include "net/topology_builders.hpp"
#include "runner/flow_driver.hpp"
#include "runner/protocols.hpp"
#include "sim/simulator.hpp"

namespace xpass::transport {
namespace {

using sim::Time;

TEST(GrantLedger, ConservationHoldsAtEveryStep) {
  GrantLedger ledger;
  // Interleave grants, consumes, and wastes; the identity
  // granted == consumed + wasted + outstanding must hold after every op.
  auto check = [&] {
    EXPECT_EQ(ledger.granted(),
              ledger.consumed() + ledger.wasted() + ledger.outstanding());
  };
  for (int i = 0; i < 100; ++i) {
    ledger.grant();
    check();
    if (i % 3 == 0) ledger.consume();
    if (i % 7 == 0) ledger.waste();
    check();
  }
  // At i=0 the waste clamps to zero: the lone grant was just consumed.
  EXPECT_EQ(ledger.granted(), 100u);
  EXPECT_EQ(ledger.consumed(), 34u);
  EXPECT_EQ(ledger.wasted(), 14u);
  EXPECT_EQ(ledger.outstanding(), 52u);
  EXPECT_DOUBLE_EQ(ledger.waste_ratio(), 14.0 / 100.0);
}

TEST(GrantLedger, ConsumeAndWasteClampToOutstanding) {
  GrantLedger ledger;
  // Nothing granted: consume/waste move zero units, never underflow.
  EXPECT_EQ(ledger.consume(5), 0u);
  EXPECT_EQ(ledger.waste(5), 0u);
  ledger.grant(10);
  EXPECT_EQ(ledger.consume(7), 7u);
  EXPECT_EQ(ledger.waste(7), 3u);  // only 3 left outstanding
  EXPECT_EQ(ledger.outstanding(), 0u);
  EXPECT_EQ(ledger.granted(), ledger.consumed() + ledger.wasted());
}

TEST(GrantLedger, WasteRatioIsFig20Metric) {
  GrantLedger ledger;
  EXPECT_DOUBLE_EQ(ledger.waste_ratio(), 0.0);  // no grants: defined as 0
  ledger.grant(4);
  ledger.consume(3);
  ledger.waste(1);
  EXPECT_DOUBLE_EQ(ledger.waste_ratio(), 0.25);
}

TEST(CreditScheduler, GapIsOneCycleAtTargetRate) {
  // 10G data rate, 1538+84=1622B cycle: one credit per ~1.2976us.
  EXPECT_DOUBLE_EQ(CreditScheduler::gap_sec(10e9, net::kCreditCycleBytes),
                   net::kCreditCycleBytes * 8.0 / 10e9);
  // Halving the rate doubles the gap.
  EXPECT_DOUBLE_EQ(CreditScheduler::gap_sec(5e9, 1622),
                   2.0 * CreditScheduler::gap_sec(10e9, 1622));
}

TEST(CreditScheduler, PacesEmissionsAtSuppliedRate) {
  sim::Simulator sim;
  const double rate = 10e9;
  uint64_t emitted = 0;
  CreditScheduler::Config cfg;
  cfg.jitter = 0.0;  // exact pacing for this test
  CreditScheduler sched(
      sim, cfg, [&] { return rate; },
      [&] {
        ++emitted;
        return true;
      });
  sched.start();
  EXPECT_TRUE(sched.running());
  const Time horizon = Time::ms(1);
  sim.run_until(horizon);
  // Expected one emission per cycle gap over the horizon (first fires one
  // gap after start).
  const double gap = CreditScheduler::gap_sec(rate, cfg.cycle_bytes);
  const auto expected = static_cast<uint64_t>(horizon.to_sec() / gap);
  EXPECT_EQ(emitted, expected);
  EXPECT_EQ(sched.emitted(), emitted);
}

TEST(CreditScheduler, JitterBoundsTheGap) {
  // With jitter j, every inter-emission gap lies in [(1-j), (1+j)] x gap.
  sim::Simulator sim;
  const double rate = 10e9;
  CreditScheduler::Config cfg;
  cfg.jitter = 0.1;
  Time last = Time::zero();
  bool first = true;
  double min_gap = 1e9, max_gap = 0.0;
  CreditScheduler sched(
      sim, cfg, [&] { return rate; },
      [&] {
        if (!first) {
          const double g = (sim.now() - last).to_sec();
          min_gap = std::min(min_gap, g);
          max_gap = std::max(max_gap, g);
        }
        first = false;
        last = sim.now();
        return true;
      });
  sched.start();
  sim.run_until(Time::ms(1));
  const double gap = CreditScheduler::gap_sec(rate, cfg.cycle_bytes);
  EXPECT_GE(min_gap, gap * (1.0 - cfg.jitter));
  EXPECT_LE(max_gap, gap * (1.0 + cfg.jitter));
  // Jitter actually jitters: the spread is a meaningful fraction of the gap.
  EXPECT_GT(max_gap - min_gap, gap * 0.05);
}

TEST(CreditScheduler, StopCancelsPendingEmission) {
  sim::Simulator sim;
  uint64_t emitted = 0;
  CreditScheduler sched(
      sim, {}, [] { return 10e9; },
      [&] {
        ++emitted;
        return true;
      });
  sched.start();
  sim.run_until(Time::us(10));
  const uint64_t at_stop = emitted;
  EXPECT_GT(at_stop, 0u);
  sched.stop();
  EXPECT_FALSE(sched.running());
  sim.run_until(Time::ms(1));
  EXPECT_EQ(emitted, at_stop);
  // start() re-arms after a stop.
  sched.start();
  sim.run_until(Time::ms(2));
  EXPECT_GT(emitted, at_stop);
}

TEST(CreditScheduler, EmitReturningFalseEndsThePump) {
  sim::Simulator sim;
  uint64_t calls = 0;
  CreditScheduler sched(
      sim, {}, [] { return 10e9; }, [&] { return ++calls < 5; });
  sched.start();
  sim.run_until(Time::ms(1));
  EXPECT_EQ(calls, 5u);          // the fifth call refused; no more fire
  EXPECT_EQ(sched.emitted(), 4u);  // refused emissions don't count
}

// --- CreditedConnection, under both protocols -------------------------------

using runner::Protocol;

struct Env {
  sim::Simulator sim;
  net::Topology topo{sim};
  net::Dumbbell d;
  std::unique_ptr<Transport> t;

  Env(Protocol p, uint64_t seed, size_t pairs) : sim(seed) {
    const auto link = runner::protocol_link_config(p, 10e9, Time::us(1));
    d = net::build_dumbbell(topo, pairs, link, link);
    t = runner::make_transport(p, sim, topo, Time::us(100));
  }

  FlowSpec spec(uint32_t id, uint64_t bytes) {
    FlowSpec s;
    s.id = id;
    s.src = d.senders[id - 1];
    s.dst = d.receivers[id - 1];
    s.size_bytes = bytes;
    return s;
  }

  // Cuts the first receiver off in both directions.
  void cut_receiver() {
    d.receivers[0]->nic().fail(net::LinkFailMode::kDrop);
    d.receivers[0]->nic().peer()->fail(net::LinkFailMode::kDrop);
  }
};

CreditedConnection* credited(const std::unique_ptr<Connection>& c) {
  return dynamic_cast<CreditedConnection*>(c.get());
}

class CreditedSender : public ::testing::TestWithParam<Protocol> {};

TEST_P(CreditedSender, RecoversFromForcedDataLoss) {
  // A lossy bottleneck drops 1% of the data frames (and of the requests
  // and stops that ride with them); the receiver-driven cum-ack in credits
  // must still recover every byte ("correct operation does not depend on
  // zero loss", §3.1).
  Env env(GetParam(), 37, 4);
  net::LinkErrorConfig lossy;
  lossy.data_drop = 0.01;
  env.d.bottleneck->set_error_model(lossy, 7);
  runner::FlowDriver driver(env.sim, *env.t);
  for (uint32_t i = 1; i <= 4; ++i) driver.add(env.spec(i, 2'000'000));
  ASSERT_TRUE(driver.run_to_completion(Time::sec(5)));
  EXPECT_GT(env.d.bottleneck->fault_stats().injected_data_drops, 0u);
  for (const auto& c : driver.connections()) {
    EXPECT_EQ(c->delivered_bytes(), 2'000'000u);
  }
}

TEST_P(CreditedSender, DestroyWithInFlightHostReleaseIsSafe) {
  // Regression (use-after-free): the host-release data send captured `this`
  // without tracking its TimerId, so a connection destroyed with a pending
  // release fired into freed memory. Run under the asan preset this test
  // crashes without the fix.
  Env env(GetParam(), 31, 2);
  for (auto* h : env.topo.hosts()) {
    // µs-scale credit-processing delays keep releases in flight at any cut.
    h->set_delay_model(net::HostDelayModel::testbed());
  }
  auto conn = env.t->create(env.spec(1, 1'000'000));
  conn->start();
  auto* c = credited(conn);
  ASSERT_NE(c, nullptr);
  // Step until a host release is actually scheduled, then tear down.
  while (env.sim.now() < Time::ms(5) && c->pending_releases() == 0) {
    ASSERT_TRUE(env.sim.events().step());
  }
  ASSERT_GT(c->pending_releases(), 0u);
  conn.reset();  // ~Connection -> stop(): must cancel releases
  env.sim.run_until(env.sim.now() + Time::ms(5));  // would fire into `c`
  SUCCEED();
}

TEST_P(CreditedSender, RequestBackoffAbortsWhenPeerUnreachable) {
  // The request watchdog backs off exponentially while the peer is silent
  // and aborts the flow after max_dead_retries periods instead of hanging.
  Env env(GetParam(), 31, 2);
  runner::FlowDriver driver(env.sim, *env.t);
  env.cut_receiver();  // unreachable from t=0
  driver.add(env.spec(1, 1'000'000));
  EXPECT_FALSE(driver.run_to_completion(Time::sec(5)));
  EXPECT_EQ(driver.failed(), 1u);
  auto* c = credited(driver.connections()[0]);
  ASSERT_NE(c, nullptr);
  EXPECT_TRUE(c->failed());
  EXPECT_FALSE(c->fail_reason().empty());
  // One initial request plus one retransmission per silent period.
  EXPECT_EQ(c->requests_sent(), 1u + CreditedConfig{}.max_dead_retries);
  // Backoff actually spread the retries (12 flat periods would be 4.8ms),
  // yet the flow settled far before the driver deadline.
  EXPECT_GT(env.sim.now(), Time::ms(5));
  EXPECT_LT(env.sim.now(), Time::sec(1));
}

TEST_P(CreditedSender, CreditStopRetransmitsWhileCreditsKeepArriving) {
  // CREDIT_STOP is unacknowledged. If it is lost the receiver keeps pacing
  // credits at a finished sender; each late credit re-triggers the stop,
  // rate-limited to one per stop_retx_interval.
  Env env(GetParam(), 31, 2);
  runner::FlowDriver driver(env.sim, *env.t);
  driver.add(env.spec(1, 100'000));
  ASSERT_TRUE(driver.run_to_completion(Time::sec(1)));
  env.sim.run_until(env.sim.now() + Time::ms(5));
  auto* c = credited(driver.connections()[0]);
  ASSERT_NE(c, nullptr);
  // A clean run needs no CREDIT_STOP at all: the receiver's FIN-complete
  // path stops crediting by itself before any credit is wasted.
  const uint64_t stops = c->credit_stops_sent();

  // Play a receiver that kept crediting (its early stop never engaged,
  // or a previous CREDIT_STOP was lost): stray credits for the finished
  // flow arrive at the sender.
  auto credit_at = [&](Time at) {
    env.sim.at(at, [&env] {
      net::Packet p = net::make_control(net::PktType::kCredit, 1,
                                        env.d.receivers[0]->id(),
                                        env.d.senders[0]->id());
      p.seq = 1000;      // credit sequence (echo source; irrelevant here)
      p.ack = 100'000;   // cum-ack: receiver has everything
      env.d.receivers[0]->send(std::move(p));
    });
  };
  const Time base = env.sim.now();
  credit_at(base + Time::us(10));   // > stop_retx_interval since the stop
  credit_at(base + Time::us(50));   // within the interval of the re-send
  credit_at(base + Time::ms(1));    // beyond it again
  env.sim.run_until(base + Time::ms(2));
  EXPECT_EQ(c->credit_stops_sent(), stops + 2);
}

TEST_P(CreditedSender, WatchdogPastTheTailIsTheProtocols) {
  // sender_finished() is the one sender behavior the protocols do not
  // share. ExpressPass's watchdog runs until the tail is sent *and*
  // CREDIT_STOP went out; SIRD's stops once the tail is sent, leaving
  // recovery to its receiver's probe. Cut the path the moment the tail
  // leaves: ExpressPass keeps re-requesting, SIRD stays silent.
  const Protocol p = GetParam();
  Env env(p, 31, 2);
  runner::FlowDriver driver(env.sim, *env.t);
  const uint64_t bytes = 100'000;
  driver.add(env.spec(1, bytes));
  auto* c = credited(driver.connections()[0]);
  ASSERT_NE(c, nullptr);
  const uint64_t packets = (bytes + net::kMssBytes - 1) / net::kMssBytes;
  while (c->ledger().consumed() < packets) {
    ASSERT_TRUE(env.sim.events().step());
  }
  env.cut_receiver();
  const uint64_t requests = c->requests_sent();
  env.sim.run_until(env.sim.now() + Time::ms(20));
  ASSERT_FALSE(c->completed());
  ASSERT_FALSE(c->failed());
  if (p == Protocol::kExpressPass) {
    EXPECT_GT(c->requests_sent(), requests);
  } else {
    EXPECT_EQ(c->requests_sent(), requests);
  }
}

INSTANTIATE_TEST_SUITE_P(Both, CreditedSender,
                         ::testing::Values(Protocol::kExpressPass,
                                           Protocol::kSird),
                         [](const auto& info) {
                           return std::string(
                               runner::protocol_name(info.param));
                         });

}  // namespace
}  // namespace xpass::transport
