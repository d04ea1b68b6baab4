#include "transport/window.hpp"

#include <algorithm>
#include <cassert>

namespace xpass::transport {

using net::Packet;
using net::PktType;
using sim::Time;

WindowConnection::WindowConnection(sim::Simulator& sim, const FlowSpec& spec,
                                   const WindowConfig& cfg)
    : Connection(sim, spec), cfg_(cfg), cwnd_(cfg.init_cwnd_pkts) {
  total_pkts_ = spec.size_bytes == kLongRunning
                    ? kLongRunning
                    : (spec.size_bytes + cfg_.mss - 1) / cfg_.mss;
  srtt_ = cfg_.base_rtt;
  rttvar_ = cfg_.base_rtt / 2;
}

WindowConnection::~WindowConnection() { stop(); }

void WindowConnection::start() {
  if (started_) return;
  started_ = true;
  spec_.src->register_flow(spec_.id, [this](Packet&& p) {
    on_packet(std::move(p));
  });
  spec_.dst->register_flow(spec_.id, [this](Packet&& p) {
    on_packet(std::move(p));
  });
  next_release_ = sim_.now();
  begin_sending();
}

void WindowConnection::begin_sending() {
  if (cfg_.handshake) {
    Packet syn = net::make_control(PktType::kSyn, spec_.id, spec_.src->id(),
                                   spec_.dst->id());
    syn.ts = sim_.now();
    spec_.src->send(std::move(syn));
    arm_rto();  // retry the SYN if it is lost
    return;
  }
  pump();
  arm_rto();
}

void WindowConnection::stop() {
  if (!started_) return;
  started_ = false;
  spec_.src->unregister_flow(spec_.id);
  spec_.dst->unregister_flow(spec_.id);
  sim_.cancel(rto_timer_);
}

void WindowConnection::on_packet(Packet&& p) {
  if (p.type == PktType::kData) {
    handle_data(p);
  } else if (p.type == PktType::kAck) {
    handle_ack(p);
  } else if (p.type == PktType::kSyn) {
    Packet synack = net::make_control(PktType::kSynAck, spec_.id,
                                      spec_.dst->id(), spec_.src->id());
    synack.ts = p.ts;
    spec_.dst->send(std::move(synack));
  } else if (p.type == PktType::kSynAck) {
    if (!handshake_done_) {
      handshake_done_ = true;
      pump();
      arm_rto();
    }
  }
}

void WindowConnection::handle_data(const Packet& p) {
  if (p.seq == rcv_next_) {
    // In order: deliver without a trip through the reassembly buffer, then
    // advance the cumulative point over everything now contiguous.
    ++rcv_next_;
    deliver(p.payload_bytes);
    for (auto it = rcv_ooo_.begin();
         it != rcv_ooo_.end() && it->first == rcv_next_;
         it = rcv_ooo_.erase(it)) {
      ++rcv_next_;
      deliver(it->second);
    }
  } else if (p.seq > rcv_next_) {
    rcv_ooo_.emplace(p.seq, p.payload_bytes);
  }
  // Duplicates just re-ACK the cumulative point.
  Packet ack = net::make_control(PktType::kAck, spec_.id, spec_.dst->id(),
                                 spec_.src->id());
  ack.ack = rcv_next_;
  ack.ece = p.ecn_ce;
  ack.ts = p.ts;
  ack.queue_delay = p.queue_delay;
  ack.rcp_rate_bps = p.rcp_rate_bps;
  spec_.dst->send(std::move(ack));
}

void WindowConnection::handle_ack(const Packet& p) {
  // RTT sample from the echoed timestamp.
  const Time sample = sim_.now() - p.ts;
  if (!have_rtt_) {
    srtt_ = sample;
    rttvar_ = sample / 2;
    have_rtt_ = true;
  } else {
    const Time err = sample > srtt_ ? sample - srtt_ : srtt_ - sample;
    rttvar_ = rttvar_ * 0.75 + err * 0.25;
    srtt_ = srtt_ * 0.875 + sample * 0.125;
  }

  if (p.ack > snd_una_) {
    const uint64_t newly = p.ack - snd_una_;
    snd_una_ = p.ack;
    if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;
    dup_acks_ = 0;
    rto_backoff_ = 0;
    on_ack_hook(p, newly);
    if (total_pkts_ != kLongRunning && snd_una_ >= total_pkts_) {
      sender_done_ = true;
      sim_.cancel(rto_timer_);
      return;
    }
    arm_rto();
    pump();
  } else {
    ++dup_acks_;
    if (dup_acks_ == 3) {
      dup_acks_ = 0;
      snd_nxt_ = snd_una_;  // go-back-N
      ++retransmits_;
      on_loss_event(/*timeout=*/false);
      arm_rto();
      pump();
    }
  }
}

double WindowConnection::pace_rate_bps() const {
  const double rtt_sec = std::max(srtt_.to_sec(), 1e-9);
  return cwnd_ * cfg_.mss * 8.0 / rtt_sec;
}

void WindowConnection::pump() {
  if (sender_done_) return;
  if (cfg_.handshake && !handshake_done_) return;
  while (!send_scheduled_) {
    const uint64_t limit =
        snd_una_ + static_cast<uint64_t>(std::max(1.0, cwnd_));
    if (snd_nxt_ >= total_pkts_ || snd_nxt_ >= limit) return;
    if (cfg_.pacing) {
      const Time now = sim_.now();
      if (next_release_ > now) {
        send_scheduled_ = true;
        sim_.after(next_release_ - now, [this] {
          send_scheduled_ = false;
          pump();
        });
        return;
      }
      const Time gap =
          Time::seconds((cfg_.mss + net::kHeaderOverhead) * 8.0 /
                        pace_rate_bps());
      next_release_ = std::max(now, next_release_) + gap;
    }
    transmit(snd_nxt_++);
  }
}

void WindowConnection::transmit(uint64_t pkt_idx) {
  const uint64_t offset = pkt_idx * cfg_.mss;
  const uint32_t payload = static_cast<uint32_t>(
      spec_.size_bytes == kLongRunning
          ? cfg_.mss
          : std::min<uint64_t>(cfg_.mss, spec_.size_bytes - offset));
  Packet p = net::make_data(spec_.id, spec_.src->id(), spec_.dst->id(),
                            pkt_idx, payload);
  p.ts = sim_.now();
  spec_.src->send(std::move(p));
}

void WindowConnection::arm_rto() {
  sim_.cancel(rto_timer_);
  Time rto = std::max(cfg_.rto_min, srtt_ + rttvar_ * 4);
  for (uint32_t i = 0; i < rto_backoff_; ++i) rto = rto * 2;
  rto_timer_ = sim_.after(rto, [this] { on_rto(); });
}

void WindowConnection::on_rto() {
  if (cfg_.handshake && !handshake_done_) {
    begin_sending();  // SYN (or the SYN-ACK) was lost: retry
    return;
  }
  if (sender_done_ || snd_una_ >= snd_nxt_) {
    // Nothing in flight; idle. Re-arm lazily on next send.
    if (!sender_done_ && snd_nxt_ < total_pkts_) {
      pump();
      arm_rto();
    }
    return;
  }
  ++timeouts_;
  ++retransmits_;
  if (rto_backoff_ < 10) ++rto_backoff_;
  snd_nxt_ = snd_una_;
  dup_acks_ = 0;
  on_loss_event(/*timeout=*/true);
  arm_rto();
  pump();
}

void WindowConnection::on_loss_event(bool timeout) {
  if (timeout) {
    ssthresh_ = std::max(cwnd_ / 2.0, min_cwnd());
    set_cwnd(min_cwnd());
  } else {
    ssthresh_ = std::max(cwnd_ / 2.0, min_cwnd());
    set_cwnd(ssthresh_);
  }
}

void WindowConnection::set_cwnd(double w) {
  cwnd_ = std::clamp(w, cfg_.min_cwnd_pkts, cfg_.max_cwnd_pkts);
}

}  // namespace xpass::transport
