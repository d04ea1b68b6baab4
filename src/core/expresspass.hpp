// ExpressPass connection: receiver-driven credit pacing with the Algorithm-1
// feedback loop, on the Fig-7 sender and in-order receiver of
// transport::CreditedConnection.
//
// Receiver policy:
//   on the credit request, pace CREDIT packets at cur_rate (jittered; sizes
//     randomized 84-92B to break switch-level synchronization)
//   measure credit loss per update period from the credit sequence each
//     data packet echoes, and run CreditFeedback on it
//   stop crediting on CREDIT_STOP or once every byte up to the FIN arrived.
#pragma once

#include "core/feedback.hpp"
#include "net/packet.hpp"
#include "transport/connection.hpp"
#include "transport/credit_sched.hpp"

namespace xpass::core {

struct ExpressPassConfig : transport::CreditedConfig {
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
  // Receiver-side dead-flow detection: this many consecutive feedback
  // periods with credits paced but not one data packet back aborts the
  // receiver half. Must comfortably exceed the worst-case credit->data gap
  // at the minimum credit rate (max_rate/10000 floor ~ 13ms at 10G, vs.
  // 600 x 100us = 60ms), so a merely-throttled flow can never trip it.
  uint32_t receiver_dead_periods = 600;
};

class ExpressPassConnection : public transport::CreditedConnection {
 public:
  ExpressPassConnection(sim::Simulator& sim, const transport::FlowSpec& spec,
                        const ExpressPassConfig& cfg);
  ~ExpressPassConnection() override;

  // Introspection for tests/benches.
  double credit_rate_bps() const { return feedback_.rate(); }
  uint64_t credits_sent() const { return credits_sent_total_; }
  uint64_t credits_received() const { return ledger().granted(); }
  uint64_t credits_wasted() const { return ledger().wasted(); }
  const CreditFeedback& feedback() const { return feedback_; }
  // Cumulative credits the receiver detected as lost via echoed-sequence
  // gaps (§3.2) — the run-long sum of credits_dropped_period_.
  uint64_t credits_detected_lost() const { return credits_detected_lost_; }

 private:
  void receiver_on_packet(net::Packet&& p) override;
  void halt_receiver() override;
  // The watchdog runs until all bytes are sent and the stop signaled: the
  // sender half cannot observe delivery directly.
  bool sender_finished() const override { return stop_sent() && tail_sent(); }

  void start_credits();
  // CreditScheduler's emit callback: builds and sends one CREDIT packet.
  bool emit_credit();
  void run_feedback();

  const ExpressPassConfig& cfg_;
  CreditFeedback feedback_;

  // The credit pump (pacing timer, gap jitter, running flag) lives in
  // transport::CreditScheduler; this class supplies its rate (feedback_)
  // and emission (emit_credit).
  transport::CreditScheduler credit_sched_;
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
