#include "transport/sird.hpp"

#include <algorithm>
#include <string>

namespace xpass::transport {

using net::Packet;
using net::PktType;

// ----- Allocator ------------------------------------------------------------

SirdAllocator::SirdAllocator(net::Host& host, const SirdConfig& cfg,
                             SirdStats& stats)
    : host_(host),
      stats_(stats),
      sched_(
          host.simulator(), {.jitter = cfg.jitter},
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
    : CreditedConnection(sim, spec, cfg),
      cfg_(cfg),
      stats_(stats),
      alloc_(alloc) {}

SirdConnection::~SirdConnection() { stop(); }

void SirdConnection::stop() {
  // Inside the started guard: a stopped connection has left the rotation
  // already, and the destructor calls stop() again.
  if (started()) alloc_.remove(this);
  CreditedConnection::stop();
}

net::Host::Handler SirdConnection::sender_handler() {
  return [this](Packet&& p) {
    // Grants past the covered demand are SIRD's (bounded) waste.
    switch (answer_credit(p)) {
      case CreditUse::kConsumed:
        ++stats_.grants_consumed;
        break;
      case CreditUse::kWasted:
        ++stats_.grants_wasted;
        break;
      case CreditUse::kIgnored:
        break;
    }
  };
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
  switch (p.type) {
    case PktType::kSyn:
    case PktType::kCreditRequest:
      if (done_) return;  // late/duplicate request for a finished flow
      // The request's seq is the sender's demand; re-requests are safe
      // because the receiver takes the max.
      advertised_end_ = std::max(advertised_end_, p.seq);
      if (!probe_armed_) {
        probe_armed_ = true;
        arm_probe();
      }
      if (grantable()) alloc_.activate(this);
      return;
    case PktType::kCreditStop:
      finish_receiver();
      return;
    case PktType::kData:
      received_bytes_ += p.payload_bytes;
      if (receive_data(p)) {
        finish_receiver();
        return;
      }
      // Data progress reopens the solicitation window.
      if (grantable()) alloc_.activate(this);
      return;
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
    if (grantable()) alloc_.activate(this);
  }
  arm_probe();
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
