#include "transport/sird.hpp"

#include <algorithm>

#include "net/packet_pool.hpp"

namespace xpass::transport {

using net::Packet;
using net::PktType;

// ----- Allocator ------------------------------------------------------------

namespace {
CreditScheduler::Config alloc_sched_config(const SirdConfig& cfg) {
  CreditScheduler::Config c;
  c.jitter = cfg.jitter;
  c.cycle_bytes = net::kCreditCycleBytes;
  return c;
}
}  // namespace

SirdAllocator::SirdAllocator(net::Host& host, const SirdConfig& cfg,
                             SirdStats& stats)
    : host_(host),
      cfg_(cfg),
      stats_(stats),
      sched_(
          host.simulator(), alloc_sched_config(cfg),
          // Grants share the host's full NIC rate: one grant per
          // credit+MTU cycle admits exactly line rate of data across
          // however many flows the rotation holds.
          [this] { return host_.nic().config().rate_bps; },
          [this] { return emit_grant(); }) {}

void SirdAllocator::activate(SirdConnection* c) {
  if (!c->in_rotation_) {
    rotation_.push_back(c);
    c->in_rotation_ = true;
  }
  if (!sched_.running()) sched_.start();
}

void SirdAllocator::remove(SirdConnection* c) {
  if (!c->in_rotation_) return;
  rotation_.erase(std::remove(rotation_.begin(), rotation_.end(), c),
                  rotation_.end());
  c->in_rotation_ = false;
}

bool SirdAllocator::emit_grant() {
  // Serve the first grantable flow in rotation order; flows whose demand is
  // met (or whose solicitation window is full) fall out lazily and are
  // re-activated by their own demand/progress events. Returning false when
  // nobody wants bandwidth stops the pump — idle receivers cost nothing.
  while (!rotation_.empty()) {
    SirdConnection* c = rotation_.front();
    rotation_.pop_front();
    if (!c->grantable()) {
      c->in_rotation_ = false;
      continue;
    }
    c->send_grant();
    ++stats_.grants_issued;
    if (c->grantable()) {
      rotation_.push_back(c);  // back of the rotation: round-robin fairness
    } else {
      c->in_rotation_ = false;
    }
    return true;
  }
  return false;
}

// ----- Connection -----------------------------------------------------------

SirdConnection::SirdConnection(sim::Simulator& sim, const FlowSpec& spec,
                               const SirdConfig& cfg, SirdStats& stats,
                               SirdAllocator& alloc)
    : Connection(sim, spec), cfg_(cfg), stats_(stats), alloc_(&alloc) {}

SirdConnection::~SirdConnection() { stop(); }

void SirdConnection::start() {
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

void SirdConnection::stop() {
  if (!started_) return;
  started_ = false;
  spec_.src->unregister_flow(spec_.id);
  spec_.dst->unregister_flow(spec_.id);
  sim_.cancel(request_timer_);
  sim_.cancel(probe_timer_);
  while (!release_timers_.empty()) sim_.cancel(release_timers_.pop_front());
  if (alloc_ != nullptr) alloc_->remove(this);
}

// ----- Sender half ----------------------------------------------------------

void SirdConnection::send_request() {
  // Demand advertisement, piggybacked on SYN: seq carries the flow's total
  // size (kLongRunning for open-ended flows). Idempotent — the receiver
  // takes the max, so watchdog re-requests are safe.
  Packet syn = net::make_control(PktType::kSyn, spec_.id, spec_.src->id(),
                                 spec_.dst->id());
  syn.seq = spec_.size_bytes;
  spec_.src->send(std::move(syn));
}

void SirdConnection::arm_watchdog() {
  sim_.cancel(request_timer_);
  double t_sec = cur_request_timeout_.to_sec();
  if (cfg_.request_jitter > 0.0 && dead_retries_ > 0) {
    // Same desynchronization rationale as ExpressPass: only backed-off
    // retries draw jitter, so healthy runs leave the RNG stream untouched.
    t_sec *= 1.0 + cfg_.request_jitter * sim_.rng().uniform(-1.0, 1.0);
  }
  request_timer_ =
      sim_.after(sim::Time::seconds(t_sec), [this] { on_watchdog(); });
}

void SirdConnection::on_watchdog() {
  if (completed() || failed()) return;
  const uint64_t size = spec_.size_bytes;
  if (size != kLongRunning && snd_nxt_ >= size) return;  // tail is in flight
  if (ledger_.granted() > grants_at_last_watchdog_) {
    grants_at_last_watchdog_ = ledger_.granted();
    dead_retries_ = 0;
    cur_request_timeout_ = cfg_.request_timeout;
    arm_watchdog();
    return;
  }
  ++dead_retries_;
  if (dead_retries_ > cfg_.max_dead_retries) {
    abort_flow("sird sender: no grants after " +
               std::to_string(cfg_.max_dead_retries) + " request retries");
    return;
  }
  send_request();
  cur_request_timeout_ = std::min(
      sim::Time::seconds(cur_request_timeout_.to_sec() * cfg_.request_backoff),
      cfg_.request_timeout_cap);
  arm_watchdog();
}

void SirdConnection::sender_on_packet(Packet&& p) {
  if (p.type != PktType::kCredit || failed()) return;
  ledger_.grant();

  const uint64_t size = spec_.size_bytes;
  // Grant cum-acks double as the loss-recovery signal, exactly like
  // ExpressPass credits: if everything was sent a while ago and the
  // receiver still reports a hole, rewind to its cumulative point. The time
  // guard rejects grants that were in flight when the tail went out.
  if (size != kLongRunning && snd_nxt_ >= size && p.ack < size &&
      sim_.now() - last_data_sent_ > cfg_.request_timeout) {
    snd_nxt_ = p.ack;
  }

  if (size != kLongRunning && snd_nxt_ >= size) {
    // Demand already covered: the grant was in flight past the tail. This
    // is SIRD's (bounded) waste — see GrantAccounting.
    ledger_.waste();
    ++stats_.grants_wasted;
    if (p.ack >= size &&
        (!stop_sent_ ||
         sim_.now() - last_stop_time_ >= cfg_.stop_retx_interval)) {
      send_grant_stop();
    }
    return;
  }

  const uint32_t payload = static_cast<uint32_t>(
      size == kLongRunning ? net::kMssBytes
                           : std::min<uint64_t>(net::kMssBytes,
                                                size - snd_nxt_));
  ledger_.consume();
  ++stats_.grants_consumed;
  Packet data = net::make_data(spec_.id, spec_.src->id(), spec_.dst->id(),
                               snd_nxt_, payload);
  data.ts = sim_.now();
  snd_nxt_ += payload;
  if (size != kLongRunning && snd_nxt_ >= size) data.fin = true;

  // Host grant-processing delay, released in FIFO order (same model as
  // ExpressPass credit processing — the NIC answers one permission packet
  // at a time).
  last_data_sent_ = sim_.now();
  const sim::Time release =
      std::max(host_release_, sim_.now() + spec_.src->sample_credit_delay());
  host_release_ = release;
  release_timers_.push_back(
      sim_.at(release, [this, d = net::PacketRef(std::move(data))]() mutable {
        release_timers_.pop_front();
        spec_.src->send(std::move(*d));
      }));
}

void SirdConnection::send_grant_stop() {
  stop_sent_ = true;
  last_stop_time_ = sim_.now();
  Packet stop = net::make_control(PktType::kCreditStop, spec_.id,
                                  spec_.src->id(), spec_.dst->id());
  spec_.src->send(std::move(stop));
}

// ----- Receiver half --------------------------------------------------------

bool SirdConnection::grantable() const {
  if (done_ || failed()) return false;
  if (granted_bytes_ >= advertised_end_) return false;  // demand covered
  return outstanding_grant_bytes() < cfg_.solicitation_bytes;
}

void SirdConnection::send_grant() {
  Packet g = net::make_control(PktType::kCredit, spec_.id, spec_.dst->id(),
                               spec_.src->id());
  g.seq = grant_seq_++;
  g.ack = rcv_next_;
  // One grant authorizes one MSS; clamp the budget at the advertised end so
  // a short tail doesn't trigger a surplus grant.
  granted_bytes_ = std::min<uint64_t>(granted_bytes_ + net::kMssBytes,
                                      advertised_end_);
  spec_.dst->send(std::move(g));
}

void SirdConnection::receiver_on_packet(Packet&& p) {
  if (failed()) return;
  switch (p.type) {
    case PktType::kSyn:
    case PktType::kCreditRequest:
      if (done_) return;  // late/duplicate request for a finished flow
      advertised_end_ = std::max(advertised_end_, p.seq);
      if (!probe_armed_) {
        probe_armed_ = true;
        arm_probe();
      }
      if (grantable()) alloc_->activate(this);
      return;
    case PktType::kCreditStop:
      done_ = true;
      sim_.cancel(probe_timer_);
      return;
    case PktType::kData: {
      received_bytes_ += p.payload_bytes;
      if (p.fin) fin_end_ = p.seq + p.payload_bytes;
      if (p.seq == rcv_next_) {
        rcv_next_ += p.payload_bytes;
        deliver(p.payload_bytes);
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
          // No retransmission toward an end that doesn't exist; account
          // goodput across the hole.
          rcv_next_ = p.seq + p.payload_bytes;
          deliver(p.payload_bytes);
        } else {
          rcv_ooo_.emplace(p.seq, p.payload_bytes);
        }
      }
      if (fin_end_ > 0 && rcv_next_ >= fin_end_) {
        done_ = true;
        sim_.cancel(probe_timer_);
        return;
      }
      // Data progress reopens the solicitation window.
      if (grantable()) alloc_->activate(this);
      return;
    }
    default:
      return;
  }
}

void SirdConnection::arm_probe() {
  probe_timer_ = sim_.after(cfg_.probe_period, [this] { on_probe(); });
}

void SirdConnection::on_probe() {
  if (done_ || failed()) return;
  if (received_bytes_ > progress_at_probe_) {
    progress_at_probe_ = received_bytes_;
    dead_periods_ = 0;
  } else if (granted_bytes_ > rcv_next_) {
    // Grants outstanding, nothing arriving: either the grants or the data
    // they solicited were lost. Forgive the budget down to the in-order
    // edge so the allocator re-solicits the missing range (the grant's
    // cum-ack makes the sender rewind to the same point), and count the
    // silent period toward the dead verdict.
    ++dead_periods_;
    if (dead_periods_ >= cfg_.receiver_dead_periods) {
      abort_flow("sird receiver: grants paced but no data for " +
                 std::to_string(dead_periods_) + " probe periods");
      return;
    }
    granted_bytes_ = rcv_next_;
    if (grantable()) alloc_->activate(this);
  }
  arm_probe();
}

void SirdConnection::abort_flow(const std::string& why) {
  sim_.cancel(request_timer_);
  sim_.cancel(probe_timer_);
  done_ = true;
  if (alloc_ != nullptr) alloc_->remove(this);
  fail_flow(why);
}

// ----- Transport ------------------------------------------------------------

SirdAllocator& SirdTransport::allocator_for(net::Host& dst) {
  auto it = allocators_.find(dst.id());
  if (it == allocators_.end()) {
    it = allocators_
             .emplace(dst.id(),
                      std::make_unique<SirdAllocator>(dst, cfg_, stats_))
             .first;
  }
  return *it->second;
}

std::unique_ptr<Connection> SirdTransport::create(const FlowSpec& spec) {
  return std::make_unique<SirdConnection>(sim_, spec, cfg_, stats_,
                                          allocator_for(*spec.dst));
}

}  // namespace xpass::transport
