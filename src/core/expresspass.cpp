#include "core/expresspass.hpp"

#include <string>

namespace xpass::core {

using net::Packet;
using net::PktType;

namespace {
FeedbackParams make_params(const ExpressPassConfig& cfg, double link_bps) {
  FeedbackParams p;
  p.max_rate = cfg.max_rate_bps > 0.0 ? cfg.max_rate_bps : link_bps;
  p.init_rate = cfg.naive ? p.max_rate : cfg.alpha_init * p.max_rate;
  p.w_init = cfg.w_init;
  p.w_min = cfg.w_min;
  p.w_max = cfg.w_max;
  p.target_loss = cfg.target_loss;
  return p;
}
}  // namespace

ExpressPassConnection::ExpressPassConnection(
    sim::Simulator& sim, const transport::FlowSpec& spec,
    const ExpressPassConfig& cfg)
    : CreditedConnection(sim, spec, cfg),
      cfg_(cfg),
      feedback_(make_params(cfg, spec.dst->nic().config().rate_bps)),
      credit_sched_(
          sim_, {.jitter = cfg.jitter}, [this] { return feedback_.rate(); },
          [this] { return emit_credit(); }) {}

ExpressPassConnection::~ExpressPassConnection() { stop(); }

void ExpressPassConnection::halt_receiver() {
  credit_sched_.stop();
  sim_.cancel(feedback_timer_);
}

// ----- Receiver (Fig 7b) --------------------------------------------------

void ExpressPassConnection::receiver_on_packet(Packet&& p) {
  switch (p.type) {
    case PktType::kSyn:
    case PktType::kCreditRequest:
      // done_ guards against a retransmitted request (Fig 7's timeout can
      // leave one in flight) restarting credits for a finished flow.
      if (!credit_sched_.running() && !done_) start_credits();
      return;
    case PktType::kCreditStop:
      finish_receiver();
      return;
    case PktType::kData:
      ++data_rcvd_period_;
      // Echoed credit sequence: gaps are credits lost at rate limiters.
      if (has_echo_) {
        if (p.ack > last_echo_seq_) {
          const uint64_t gap = p.ack - last_echo_seq_ - 1;
          credits_dropped_period_ += gap;
          credits_detected_lost_ += gap;
          last_echo_seq_ = p.ack;
        }
      } else {
        has_echo_ = true;
        credits_dropped_period_ += p.ack;  // credits before the first echo
        credits_detected_lost_ += p.ack;
        last_echo_seq_ = p.ack;
      }
      // All data arrived: stop crediting immediately and for good. Credits
      // already in flight are the unavoidable waste of Fig 8b / Fig 20.
      if (receive_data(p)) finish_receiver();
      return;
    default:
      return;
  }
}

void ExpressPassConnection::start_credits() {
  credits_sent_period_ = 0;
  data_rcvd_period_ = 0;
  credit_sched_.start();
  feedback_timer_ =
      sim_.after(cfg_.update_period, [this] { run_feedback(); });
}

bool ExpressPassConnection::emit_credit() {
  Packet credit = net::make_control(PktType::kCredit, spec_.id,
                                    spec_.dst->id(), spec_.src->id());
  credit.seq = credit_seq_++;
  credit.ack = rcv_next_;
  credit.credit_class = cfg_.traffic_class;
  if (cfg_.randomize_credit_size) {
    credit.wire_bytes = static_cast<uint32_t>(
        sim_.rng().uniform_int(net::kMinWireBytes, net::kMinWireBytes + 8));
  }
  spec_.dst->send(std::move(credit));
  ++credits_sent_total_;
  ++credits_sent_period_;
  return true;
}

void ExpressPassConnection::run_feedback() {
  if (!credit_sched_.running() || failed()) return;
  // Dead-flow detection: credits going out, nothing at all coming back, for
  // long enough that even a min-rate sender (one data packet per ~13ms at
  // 10G) would have shown up many times over. The sender is gone — stop
  // pouring credits into the network and settle the flow as failed.
  if (credits_sent_period_ > 0 && data_rcvd_period_ == 0) {
    if (++dead_periods_ >= cfg_.receiver_dead_periods) {
      abort_flow("receiver: credits paced but no data for " +
                     std::to_string(dead_periods_) + " update periods");
      return;
    }
  } else if (data_rcvd_period_ > 0) {
    dead_periods_ = 0;
  }
  if (!cfg_.naive && credits_sent_period_ > 0) {
    const uint64_t basis = credits_dropped_period_ + data_rcvd_period_;
    const double loss =
        basis > 0 ? static_cast<double>(credits_dropped_period_) /
                        static_cast<double>(basis)
                  : 0.0;  // no evidence of drops: treat as uncongested
    feedback_.update(loss);
  }
  credits_sent_period_ = 0;
  credits_dropped_period_ = 0;
  data_rcvd_period_ = 0;
  feedback_timer_ =
      sim_.after(cfg_.update_period, [this] { run_feedback(); });
}

}  // namespace xpass::core
