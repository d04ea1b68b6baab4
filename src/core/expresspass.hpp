// ExpressPass connection: receiver-driven credit pacing with the Algorithm-1
// feedback loop, and the Fig-7 sender/receiver state machines.
//
// Lifecycle:
//   sender --SYN(credit request)--> receiver       (piggybacked per §3.1)
//   receiver paces CREDIT packets at cur_rate (jittered; sizes randomized
//     84-92B to break switch-level synchronization)
//   sender answers each credit with one data packet after a sampled host
//     credit-processing delay (in order); credits with nothing to send are
//     counted as waste (Fig 8b / Fig 20)
//   receiver measures credit loss per update period via sent-vs-delivered
//     accounting and runs CreditFeedback
//   sender --CREDIT_STOP--> receiver once all bytes are acknowledged (the
//     credit's cum-ack field doubles as the loss-recovery signal: if it
//     regresses below what was sent, the sender goes back and resends).
#pragma once

#include <map>

#include "core/feedback.hpp"
#include "net/packet.hpp"
#include "net/ring_buffer.hpp"
#include "transport/connection.hpp"
#include "transport/credit_sched.hpp"

namespace xpass::core {

struct ExpressPassConfig {
  double alpha_init = 0.5;   // initial credit rate = alpha * max_rate
  double w_init = 0.5;
  double w_min = 0.01;
  double w_max = 0.5;
  double target_loss = 0.1;
  // Credit pacing jitter as a fraction of the inter-credit gap (Fig 6a).
  // On top of this, host NICs add software rate-limiter noise
  // (LinkConfig::host_credit_shaper_noise, the Fig-6b effect); together
  // they break the drop synchronization that would otherwise lock flows
  // out of the tiny drop-tail credit queues.
  double jitter = 0.1;
  bool randomize_credit_size = true;  // 84..92B (§3.1 switch-jitter fix)
  bool naive = false;                 // max-rate credits, no feedback (§2)
  // Feedback update period; the paper uses the RTT.
  sim::Time update_period = sim::Time::us(100);
  // Max credit rate in data-bps terms; 0 = receiver link rate.
  double max_rate_bps = 0.0;
  // Traffic class of this flow's credits (§7 multi-class extension; only
  // meaningful when ports configure credit_class_weights).
  uint8_t traffic_class = 0;
  // Sender retries the credit request if no credit arrives (Fig 7 timeout).
  // This is also the watchdog base interval: whenever a watchdog period
  // passes with zero credits arriving, the sender re-sends the request.
  sim::Time request_timeout = sim::Time::us(400);
  // Dead-path survival. Consecutive silent watchdog periods back off
  // exponentially (doubling up to the cap, +/- jitter fraction so a rack's
  // worth of flows doesn't re-request in lockstep after a link recovers);
  // after max_dead_retries consecutive silent periods the flow aborts
  // gracefully instead of re-requesting forever. Credits flowing again at
  // any point reset the backoff and the retry budget.
  double request_backoff = 2.0;
  sim::Time request_timeout_cap = sim::Time::ms(25);
  double request_jitter = 0.2;
  uint32_t max_dead_retries = 12;
  // Receiver-side dead-flow detection: this many consecutive feedback
  // periods with credits paced but not one data packet back aborts the
  // receiver half. Must comfortably exceed the worst-case credit->data gap
  // at the minimum credit rate (max_rate/10000 floor ~ 13ms at 10G, vs.
  // 600 x 100us = 60ms), so a merely-throttled flow can never trip it.
  uint32_t receiver_dead_periods = 600;
  // CREDIT_STOP is a single unacknowledged control packet; if it is lost
  // the receiver credits forever. The sender re-sends it whenever credits
  // are still arriving this long after the last stop went out.
  sim::Time stop_retx_interval = sim::Time::us(400);
};

class ExpressPassConnection : public transport::Connection {
 public:
  ExpressPassConnection(sim::Simulator& sim, const transport::FlowSpec& spec,
                        const ExpressPassConfig& cfg);
  ~ExpressPassConnection() override;

  void start() override;
  void stop() override;

  // Introspection for tests/benches.
  double credit_rate_bps() const { return feedback_.rate(); }
  uint64_t credits_sent() const { return credits_sent_total_; }
  uint64_t credits_received() const { return ledger_.granted(); }
  uint64_t credits_wasted() const { return ledger_.wasted(); }
  const CreditFeedback& feedback() const { return feedback_; }
  // Sender-side permission accounting (one unit per credit).
  const transport::GrantLedger& ledger() const { return ledger_; }
  // Host-release data sends scheduled but not yet on the wire.
  size_t pending_releases() const { return release_timers_.size(); }
  // Cumulative credits the receiver detected as lost via echoed-sequence
  // gaps (§3.2) — the run-long sum of credits_dropped_period_.
  uint64_t credits_detected_lost() const { return credits_detected_lost_; }
  uint64_t requests_sent() const { return requests_sent_; }
  uint64_t credit_stops_sent() const { return credit_stops_sent_; }

 private:
  // Sender side.
  void sender_on_packet(net::Packet&& p);
  void send_request();
  void send_credit_stop();
  void arm_watchdog();
  void on_watchdog();
  // All bytes sent and the stop signaled: the sender half is finished even
  // though it cannot observe delivery directly.
  bool sender_done() const {
    return stop_sent_ && spec_.size_bytes != transport::kLongRunning &&
           snd_nxt_ >= spec_.size_bytes;
  }
  // Settles the flow as failed and stops both halves' timers.
  void abort_flow(const std::string& why);

  // Receiver side.
  void receiver_on_packet(net::Packet&& p);
  void start_credits();
  // CreditScheduler's emit callback: builds and sends one CREDIT packet.
  bool emit_credit();
  void run_feedback();

  ExpressPassConfig cfg_;
  CreditFeedback feedback_;

  // Sender state (Fig 7a).
  uint64_t snd_nxt_ = 0;  // next byte to send
  bool stop_sent_ = false;
  sim::Time host_release_;  // host processing is FIFO: departures in order
  sim::Time last_data_sent_;  // guards loss-recovery against stale credits
  sim::TimerId request_timer_;  // doubles as the dead-path watchdog
  sim::Time cur_request_timeout_;   // current (backed-off) watchdog period
  uint32_t dead_retries_ = 0;       // consecutive silent watchdog periods
  uint64_t credits_at_last_watchdog_ = 0;
  sim::Time last_stop_time_;        // last CREDIT_STOP departure
  uint64_t requests_sent_ = 0;
  uint64_t credit_stops_sent_ = 0;
  // Scheduled host-release sends, oldest first (releases are FIFO, so the
  // front is always the next to fire). Cancelled in stop(): a connection
  // destroyed with a release in flight must not fire into freed memory.
  // RingBuffer rather than std::deque: a deque in steady state allocates and
  // frees a block every few hundred releases; the ring recycles its slots.
  net::RingBuffer<sim::TimerId> release_timers_;
  bool any_credit_seen_ = false;

  // Receiver state (Fig 7b). The credit pump (pacing timer, gap jitter,
  // running flag) lives in the extracted transport::CreditScheduler; this
  // class supplies its rate (feedback_) and emission (emit_credit).
  transport::CreditScheduler credit_sched_;
  // Latched once crediting ends for good (CREDIT_STOP received, or every
  // byte up to the FIN arrived): a retransmitted SYN/CREDIT_REQUEST that
  // was still in flight must not restart crediting for a finished flow.
  bool done_ = false;
  uint64_t rcv_next_ = 0;        // in-order bytes received
  uint64_t fin_end_ = 0;         // flow length, learned from the FIN flag
  std::map<uint64_t, uint32_t> rcv_ooo_;  // reassembly (packet spraying)
  uint64_t credit_seq_ = 0;
  uint64_t credits_sent_total_ = 0;
  uint64_t credits_sent_period_ = 0;
  // Credit-loss detection (§3.2): every data packet echoes the sequence
  // number of the credit that triggered it; since a flow's path is FIFO, a
  // gap in echoed sequence numbers counts exactly the credits dropped at
  // rate limiters.
  bool has_echo_ = false;
  uint64_t last_echo_seq_ = 0;
  uint64_t credits_dropped_period_ = 0;
  uint64_t credits_detected_lost_ = 0;  // run-long sum of the above
  uint64_t data_rcvd_period_ = 0;
  uint32_t dead_periods_ = 0;  // consecutive periods: credits out, no data
  sim::TimerId feedback_timer_;

  // Waste accounting (sender side): every credit received is consumed
  // (answered with data) or wasted (Fig 8b / Fig 20).
  transport::GrantLedger ledger_;

  bool started_ = false;
};

class ExpressPassTransport : public transport::Transport {
 public:
  explicit ExpressPassTransport(sim::Simulator& sim,
                                ExpressPassConfig cfg = {})
      : sim_(sim), cfg_(cfg) {}
  std::unique_ptr<transport::Connection> create(
      const transport::FlowSpec& spec) override {
    return std::make_unique<ExpressPassConnection>(sim_, spec, cfg_);
  }
  std::string_view name() const override {
    return cfg_.naive ? "ExpressPass-naive" : "ExpressPass";
  }
  const ExpressPassConfig& config() const { return cfg_; }

 private:
  sim::Simulator& sim_;
  ExpressPassConfig cfg_;
};

}  // namespace xpass::core
