#include "transport/credit_sched.hpp"

#include <algorithm>

#include "net/packet_pool.hpp"

namespace xpass::transport {

using net::Packet;
using net::PktType;

void CreditScheduler::start() {
  running_ = true;
  schedule_next();
}

void CreditScheduler::stop() {
  sim_.cancel(timer_);
  running_ = false;
}

void CreditScheduler::fire() {
  if (!running_) return;
  // The emit callback may refuse (flow settled under the timer, or a shared
  // allocator ran out of grantable flows): the pump does not re-arm and
  // reports !running(), so a later start() can revive it. The no-re-arm part
  // is exactly the pre-extraction ExpressPass behavior, where a failed
  // flow's credit timer chain ended without touching other state.
  if (!emit_()) {
    running_ = false;
    return;
  }
  ++emitted_;
  schedule_next();
}

void CreditScheduler::schedule_next() {
  // Draw order per cycle is fixed: the emit callback's own randomization
  // (credit size) happened first, then this gap jitter — byte-identity with
  // the pre-extraction ExpressPass stream depends on it.
  double gap = gap_sec(rate_(), cfg_.cycle_bytes);
  if (cfg_.jitter > 0.0) {
    gap *= 1.0 + cfg_.jitter * sim_.rng().uniform(-1.0, 1.0);
  }
  timer_ = sim_.after(sim::Time::seconds(gap), [this] { fire(); });
}

// ----- CreditedConnection ---------------------------------------------------

void CreditedConnection::start() {
  if (started_) return;
  started_ = true;
  spec_.src->register_flow(spec_.id, sender_handler());
  spec_.dst->register_flow(spec_.id, [this](Packet&& p) {
    // An aborted flow is settled: its receiver ignores stragglers.
    if (!failed()) receiver_on_packet(std::move(p));
  });
  host_release_ = sim_.now();
  cur_request_timeout_ = timing_.request_timeout;
  send_request();
  arm_watchdog();
}

void CreditedConnection::stop() {
  if (!started_) return;
  started_ = false;
  spec_.src->unregister_flow(spec_.id);
  spec_.dst->unregister_flow(spec_.id);
  halt_receiver();
  sim_.cancel(request_timer_);
  while (!release_timers_.empty()) sim_.cancel(release_timers_.pop_front());
}

net::Host::Handler CreditedConnection::sender_handler() {
  return [this](Packet&& p) { answer_credit(p); };
}

void CreditedConnection::send_request() {
  // Credit request piggybacked on SYN (§3.1). Its seq carries the flow's
  // size (kLongRunning for open-ended flows), the demand a sender-informed
  // receiver grants against; re-sending it is idempotent.
  Packet syn = net::make_control(PktType::kSyn, spec_.id, spec_.src->id(),
                                 spec_.dst->id());
  syn.seq = spec_.size_bytes;
  spec_.src->send(std::move(syn));
  ++requests_sent_;
}

void CreditedConnection::arm_watchdog() {
  sim_.cancel(request_timer_);
  double t_sec = cur_request_timeout_.to_sec();
  if (timing_.request_jitter > 0.0 && dead_retries_ > 0) {
    // Desynchronize retries: after a shared link recovers, every starved
    // flow's watchdog is pending; identical periods would re-request in
    // lockstep. Healthy re-arms skip the draw so the watchdog leaves the
    // traffic RNG stream untouched on fault-free runs.
    t_sec *= 1.0 + timing_.request_jitter * sim_.rng().uniform(-1.0, 1.0);
  }
  request_timer_ =
      sim_.after(sim::Time::seconds(t_sec), [this] { on_watchdog(); });
}

void CreditedConnection::on_watchdog() {
  // Fig 7's request timeout, generalized into a liveness watchdog: a period
  // with no credit arrivals re-sends the request with exponential backoff;
  // enough consecutive silent periods means the path (or peer) is dead and
  // the flow aborts instead of hanging forever.
  if (completed() || failed() || sender_finished()) return;
  if (ledger_.granted() > credits_at_last_watchdog_) {
    credits_at_last_watchdog_ = ledger_.granted();
    dead_retries_ = 0;
    cur_request_timeout_ = timing_.request_timeout;
    arm_watchdog();
    return;
  }
  ++dead_retries_;
  if (dead_retries_ > timing_.max_dead_retries) {
    abort_flow("sender: no credits after " +
               std::to_string(timing_.max_dead_retries) + " request retries");
    return;
  }
  send_request();
  cur_request_timeout_ = std::min(
      sim::Time::seconds(cur_request_timeout_.to_sec() *
                         timing_.request_backoff),
      timing_.request_timeout_cap);
  arm_watchdog();
}

void CreditedConnection::abort_flow(const std::string& why) {
  sim_.cancel(request_timer_);
  halt_receiver();
  done_ = true;
  fail_flow(why);
}

CreditedConnection::CreditUse CreditedConnection::answer_credit(
    const Packet& p) {
  if (p.type != PktType::kCredit || failed()) return CreditUse::kIgnored;
  ledger_.grant();

  const uint64_t size = spec_.size_bytes;
  // The credit's cum-ack tells us what the receiver actually has. If we
  // sent everything a while ago and the receiver is still missing bytes (a
  // rare data drop), go back and resend from its cumulative point. The
  // time guard matters: credits that were already in flight when we sent
  // the tail carry stale cum-acks and must not trigger retransmission.
  if (tail_sent() && p.ack < size &&
      sim_.now() - last_data_sent_ > timing_.request_timeout) {
    snd_nxt_ = p.ack;
  }

  if (tail_sent()) {
    // Nothing to send: the credit is wasted (Fig 8b / Fig 20). CREDIT_STOP
    // is unacknowledged — if it was lost, the receiver keeps crediting; the
    // arrival of further credits this long after the last stop is exactly
    // that evidence, so re-send it.
    ledger_.waste();
    if (p.ack >= size &&
        (!stop_sent_ ||
         sim_.now() - last_stop_time_ >= timing_.stop_retx_interval)) {
      send_credit_stop();
    }
    return CreditUse::kWasted;
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
  if (tail_sent()) data.fin = true;

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
  return CreditUse::kConsumed;
}

void CreditedConnection::send_credit_stop() {
  stop_sent_ = true;
  last_stop_time_ = sim_.now();
  ++credit_stops_sent_;
  Packet stop = net::make_control(PktType::kCreditStop, spec_.id,
                                  spec_.src->id(), spec_.dst->id());
  spec_.src->send(std::move(stop));
}

bool CreditedConnection::receive_data(const Packet& p) {
  // The FIN flag tells the receiver where the flow ends (possibly out of
  // order); credits keep flowing until every byte up to it arrived, which
  // is also what recovers rare data losses.
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
      // Long-running flows have no retransmission (there is no "end" to
      // recover toward); account goodput across the hole.
      rcv_next_ = p.seq + p.payload_bytes;
      deliver(p.payload_bytes);
    } else {
      rcv_ooo_.emplace(p.seq, p.payload_bytes);
    }
  }
  return fin_end_ > 0 && rcv_next_ >= fin_end_;
}

}  // namespace xpass::transport
