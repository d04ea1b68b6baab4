#include "core/expresspass.hpp"

#include <algorithm>

#include "net/packet_pool.hpp"
#include <string>

namespace xpass::core {

using net::Packet;
using net::PktType;
using transport::kLongRunning;

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

transport::CreditScheduler::Config sched_config(const ExpressPassConfig& cfg) {
  transport::CreditScheduler::Config c;
  c.jitter = cfg.jitter;
  c.cycle_bytes = net::kCreditCycleBytes;
  return c;
}
}  // namespace

ExpressPassConnection::ExpressPassConnection(
    sim::Simulator& sim, const transport::FlowSpec& spec,
    const ExpressPassConfig& cfg)
    : Connection(sim, spec),
      cfg_(cfg),
      feedback_(make_params(cfg, spec.dst->nic().config().rate_bps)),
      credit_sched_(
          sim_, sched_config(cfg), [this] { return feedback_.rate(); },
          [this] { return emit_credit(); }) {}

ExpressPassConnection::~ExpressPassConnection() { stop(); }

void ExpressPassConnection::start() {
  if (started_) return;
  started_ = true;
  spec_.src->register_flow(spec_.id, [this](Packet&& p) {
    sender_on_packet(std::move(p));
  });
  spec_.dst->register_flow(spec_.id, [this](Packet&& p) {
    receiver_on_packet(std::move(p));
  });
  host_release_ = sim_.now();
  cur_request_timeout_ = cfg_.request_timeout;
  send_request();
  arm_watchdog();
}

void ExpressPassConnection::stop() {
  if (!started_) return;
  started_ = false;
  spec_.src->unregister_flow(spec_.id);
  spec_.dst->unregister_flow(spec_.id);
  credit_sched_.stop();
  sim_.cancel(feedback_timer_);
  sim_.cancel(request_timer_);
  while (!release_timers_.empty()) sim_.cancel(release_timers_.pop_front());
}

// ----- Sender (Fig 7a) ----------------------------------------------------

void ExpressPassConnection::send_request() {
  // Credit request piggybacked on SYN (§3.1).
  Packet syn = net::make_control(PktType::kSyn, spec_.id, spec_.src->id(),
                                 spec_.dst->id());
  spec_.src->send(std::move(syn));
  ++requests_sent_;
}

void ExpressPassConnection::arm_watchdog() {
  sim_.cancel(request_timer_);
  double t_sec = cur_request_timeout_.to_sec();
  if (cfg_.request_jitter > 0.0 && dead_retries_ > 0) {
    // Desynchronize retries: after a shared link recovers, every starved
    // flow's watchdog is pending; identical periods would re-request in
    // lockstep. Healthy re-arms skip the draw so the watchdog leaves the
    // traffic RNG stream untouched on fault-free runs.
    t_sec *= 1.0 + cfg_.request_jitter * sim_.rng().uniform(-1.0, 1.0);
  }
  request_timer_ =
      sim_.after(sim::Time::seconds(t_sec), [this] { on_watchdog(); });
}

void ExpressPassConnection::on_watchdog() {
  // Fig 7's request timeout, generalized into a liveness watchdog: a period
  // with no credit arrivals re-sends CREDIT_REQUEST with exponential
  // backoff; enough consecutive silent periods means the path (or peer) is
  // dead and the flow aborts instead of hanging forever.
  if (completed() || failed() || sender_done()) return;
  if (ledger_.granted() > credits_at_last_watchdog_) {
    credits_at_last_watchdog_ = ledger_.granted();
    dead_retries_ = 0;
    cur_request_timeout_ = cfg_.request_timeout;
    arm_watchdog();
    return;
  }
  ++dead_retries_;
  if (dead_retries_ > cfg_.max_dead_retries) {
    abort_flow("sender: no credits after " +
                   std::to_string(cfg_.max_dead_retries) + " request retries");
    return;
  }
  send_request();
  cur_request_timeout_ = std::min(
      sim::Time::seconds(cur_request_timeout_.to_sec() * cfg_.request_backoff),
      cfg_.request_timeout_cap);
  arm_watchdog();
}

void ExpressPassConnection::abort_flow(const std::string& why) {
  sim_.cancel(request_timer_);
  credit_sched_.stop();
  sim_.cancel(feedback_timer_);
  done_ = true;
  fail_flow(why);
}

void ExpressPassConnection::sender_on_packet(Packet&& p) {
  if (p.type != PktType::kCredit || failed()) return;
  any_credit_seen_ = true;
  ledger_.grant();

  const uint64_t size = spec_.size_bytes;
  // The credit's cum-ack tells us what the receiver actually has. If we
  // sent everything a while ago and the receiver is still missing bytes (a
  // rare data drop), go back and resend from its cumulative point. The
  // time guard matters: credits that were already in flight when we sent
  // the tail carry stale cum-acks and must not trigger retransmission.
  if (size != kLongRunning && snd_nxt_ >= size && p.ack < size &&
      sim_.now() - last_data_sent_ > cfg_.request_timeout) {
    snd_nxt_ = p.ack;
  }

  if (size != kLongRunning && snd_nxt_ >= size) {
    // Nothing to send: the credit is wasted (Fig 8b / Fig 20). CREDIT_STOP
    // is unacknowledged — if it was lost, the receiver keeps crediting; the
    // arrival of further credits this long after the last stop is exactly
    // that evidence, so re-send it.
    ledger_.waste();
    if (p.ack >= size &&
        (!stop_sent_ ||
         sim_.now() - last_stop_time_ >= cfg_.stop_retx_interval)) {
      send_credit_stop();
    }
    return;
  }

  const uint32_t payload = static_cast<uint32_t>(
      size == kLongRunning ? net::kMssBytes
                           : std::min<uint64_t>(net::kMssBytes,
                                                size - snd_nxt_));
  ledger_.consume();  // this credit is answered with data
  Packet data = net::make_data(spec_.id, spec_.src->id(), spec_.dst->id(),
                               snd_nxt_, payload);
  data.ack = p.seq;  // echo credit sequence (loss detection, §3.2)
  data.ts = sim_.now();
  snd_nxt_ += payload;
  if (size != kLongRunning && snd_nxt_ >= size) data.fin = true;

  // Host credit-processing delay: sampled per credit, released in FIFO
  // order (a host cannot reorder its own transmissions).
  last_data_sent_ = sim_.now();
  const sim::Time release =
      std::max(host_release_, sim_.now() + spec_.src->sample_credit_delay());
  host_release_ = release;
  // Releases fire in FIFO order (times are non-decreasing and ties fire in
  // scheduling order), so this event is release_timers_.front() when it
  // runs.
  // The waiting data frame sits in a pool slot, not in the callback capture:
  // [this + one pointer] stays within the event queue's inline buffer.
  release_timers_.push_back(
      sim_.at(release, [this, d = net::PacketRef(std::move(data))]() mutable {
        release_timers_.pop_front();
        spec_.src->send(std::move(*d));
      }));
}

void ExpressPassConnection::send_credit_stop() {
  stop_sent_ = true;
  last_stop_time_ = sim_.now();
  ++credit_stops_sent_;
  Packet stop = net::make_control(PktType::kCreditStop, spec_.id,
                                  spec_.src->id(), spec_.dst->id());
  spec_.src->send(std::move(stop));
}

// ----- Receiver (Fig 7b) --------------------------------------------------

void ExpressPassConnection::receiver_on_packet(Packet&& p) {
  if (failed()) return;  // an aborted flow is settled; ignore stragglers
  switch (p.type) {
    case PktType::kSyn:
    case PktType::kCreditRequest:
      // done_ guards against a retransmitted request (Fig 7's timeout can
      // leave one in flight) restarting credits for a finished flow.
      if (!credit_sched_.running() && !done_) start_credits();
      return;
    case PktType::kCreditStop:
      done_ = true;
      credit_sched_.stop();
      sim_.cancel(feedback_timer_);
      return;
    case PktType::kData: {
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
      // The FIN flag tells the receiver where the flow ends (possibly out
      // of order); credits keep flowing until every byte up to it arrived,
      // which is also what recovers rare data losses.
      if (p.fin) fin_end_ = p.seq + p.payload_bytes;
      if (p.seq == rcv_next_) {
        rcv_next_ += p.payload_bytes;
        deliver(p.payload_bytes);
        // Drain anything reassembly buffered behind the new edge (packet
        // spraying reorders; bounded queues keep this buffer tiny, §7).
        auto it = rcv_ooo_.begin();
        while (it != rcv_ooo_.end() && it->first <= rcv_next_) {
          const uint64_t end = it->first + it->second;
          if (end > rcv_next_) {
            deliver(end - rcv_next_);
            rcv_next_ = end;
          }
          it = rcv_ooo_.erase(it);
        }
      } else if (p.seq > rcv_next_) {
        if (spec_.size_bytes == kLongRunning) {
          // Long-running flows have no retransmission (there is no "end"
          // to recover toward); account goodput across the hole.
          rcv_next_ = p.seq + p.payload_bytes;
          deliver(p.payload_bytes);
        } else {
          rcv_ooo_.emplace(p.seq, p.payload_bytes);
        }
      }
      if (fin_end_ > 0 && rcv_next_ >= fin_end_) {
        // All data arrived: stop crediting immediately and for good.
        // Credits already in flight are the unavoidable waste of Fig 8b /
        // Fig 20.
        done_ = true;
        if (credit_sched_.running()) {
          credit_sched_.stop();
          sim_.cancel(feedback_timer_);
        }
      }
      return;
    }
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
