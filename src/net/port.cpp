#include "net/port.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

#include "net/node.hpp"
#include "net/packet_pool.hpp"

namespace xpass::net {

namespace {
// splitmix64 finalizer (same mixer as the ECMP hash).
uint64_t mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Credit shaper: rate as a fraction of link bytes, provisioned at the mean
// randomized credit size so the admitted credit *count* is exactly one per
// MTU-cycle (see packet.hpp), with a two-credit burst.
constexpr double kCreditRateFraction =
    static_cast<double>(kCreditMeanWireBytes) / kCreditCycleBytes;
constexpr double kCreditBurstBytes = 2.0 * kCreditMeanWireBytes;
// Per-hop flow-level backpressure thresholds (LinkConfig::hop_backpressure).
constexpr uint64_t kFlowPauseBytes = 8 * kMaxWireBytes;
constexpr uint64_t kFlowResumeBytes = 4 * kMaxWireBytes;

DropTailQueue::Config data_queue_config(const LinkConfig& cfg) {
  DropTailQueue::Config q = cfg.data_queue;
  q.per_flow = cfg.hop_backpressure;  // flow-level pause needs flow queues
  return q;
}
}  // namespace

Port::Port(sim::Simulator& sim, Node& owner, LinkConfig cfg)
    : sim_(sim),
      owner_(owner),
      cfg_(cfg),
      shaper_noise_(owner.kind() == Node::Kind::kHost
                        ? cfg.host_credit_shaper_noise
                        : 0.0),
      data_q_(data_queue_config(cfg)),
      class_weights_(cfg.credit_class_weights.empty()
                         ? std::vector<double>{1.0}
                         : cfg.credit_class_weights),
      class_served_(class_weights_.size(), 0.0),
      credit_shaper_(cfg.rate_bps / 8.0 * kCreditRateFraction,
                     kCreditBurstBytes) {
  for (size_t i = 0; i < class_weights_.size(); ++i) {
    credit_qs_.emplace_back(cfg.credit_queue_pkts);
  }
}

void Port::enqueue(Packet&& p) {
  const sim::Time now = sim_.now();
  if (is_credit_class(p.type)) {
    const size_t cls =
        std::min<size_t>(p.credit_class, credit_qs_.size() - 1);
    if (credit_qs_[cls].empty()) rebaseline_credit_class(cls);
    credit_qs_[cls].enqueue(std::move(p), now);
  } else {
    // RCP stamps forward-path packets (data and the SYN rate probe) with the
    // min of the per-port advertised rates.
    if (rcp_ && (p.type == PktType::kData || p.type == PktType::kSyn)) {
      if (p.type == PktType::kData) rcp_->bytes_in += p.wire_bytes;
      if (p.rcp_rate_bps == 0.0 || rcp_->rate_bps < p.rcp_rate_bps) {
        p.rcp_rate_bps = rcp_->rate_bps;
      }
    }
    const FlowId flow = p.flow;
    data_q_.enqueue(std::move(p), now);
    check_pfc();
    if (cfg_.hop_backpressure) check_flow_bp(flow);
  }
  if (up_ && now < free_at_) {
    // Serializer busy: the queues are non-empty (even a drop-on-full leaves
    // the full queue behind), so skip try_transmit's rescan and just make
    // sure the service wakeup is armed.
    schedule_kick();
    return;
  }
  try_transmit();
}

void Port::check_pfc() {
  if (!cfg_.pfc || owner_.kind() != Node::Kind::kSwitch) return;
  if (!pause_sent_ && data_q_.bytes() > cfg_.pfc_pause_bytes) {
    pause_sent_ = true;
    signal_pfc(true);
  } else if (pause_sent_ && data_q_.bytes() < cfg_.pfc_resume_bytes) {
    pause_sent_ = false;
    signal_pfc(false);
  }
}

void Port::signal_pfc(bool pause) {
  // Coarse PFC: pause every link feeding this switch. PAUSE frames are
  // link-level control, modeled as a direct (propagation-delayed) signal
  // to the upstream transmitter.
  for (size_t i = 0; i < owner_.num_ports(); ++i) {
    Port& ingress = owner_.port(i);
    Port* upstream = ingress.peer();
    if (upstream == nullptr) continue;
    sim_.after(ingress.config().prop_delay, [upstream, pause] {
      if (pause) {
        upstream->pfc_pause();
      } else {
        upstream->pfc_resume();
      }
    });
  }
}

void Port::pfc_resume() {
  if (pause_count_ == 0) return;
  if (--pause_count_ == 0) try_transmit();
}

void Port::note_flow_ingress(FlowId flow, Port* upstream) {
  if (!cfg_.hop_backpressure || upstream == nullptr) return;
  auto [it, fresh] = bp_ix_.try_emplace(flow, bp_entries_.size());
  if (fresh) {
    bp_entries_.push_back(BpEntry{flow, upstream, false, true});
    ++bp_live_;
  } else {
    // A rerouted flow pauses at its latest hop; the stale hop's pause (if
    // any) lifts when this egress drains below the resume threshold.
    bp_entries_[it->second].upstream = upstream;
  }
}

void Port::check_flow_bp(FlowId flow) {
  auto it = bp_ix_.find(flow);
  if (it == bp_ix_.end()) return;  // locally sourced: nothing to pause
  BpEntry& e = bp_entries_[it->second];
  const uint64_t backlog = data_q_.flow_bytes(flow);
  Port* const up = e.upstream;
  if (!e.paused && backlog > kFlowPauseBytes) {
    e.paused = true;
    ++flow_pause_events_;
    // Pause frames are link-level control riding the reverse direction of
    // the ingress link, modeled as a propagation-delayed signal.
    sim_.after(up->config().prop_delay, [up, flow] { up->flow_pause(flow); });
  } else if (e.paused && backlog < kFlowResumeBytes) {
    e.paused = false;
    sim_.after(up->config().prop_delay,
               [up, flow] { up->flow_resume(flow); });
  } else if (!e.paused && backlog == 0) {
    // Drained and unpaused: tombstone, keeping the table bounded by the
    // flows actually queued or paused here.
    e.live = false;
    bp_ix_.erase(it);
    --bp_live_;
    if (bp_live_ == 0) {
      bp_entries_.clear();
    } else if (bp_entries_.size() > 2 * bp_live_ + 16) {
      // Compact tombstones, preserving arrival order.
      std::vector<BpEntry> keep;
      keep.reserve(bp_live_);
      for (const BpEntry& b : bp_entries_) {
        if (b.live) keep.push_back(b);
      }
      bp_entries_ = std::move(keep);
      bp_ix_.clear();
      for (size_t i = 0; i < bp_entries_.size(); ++i) {
        bp_ix_.emplace(bp_entries_[i].flow, i);
      }
    }
  }
}

void Port::release_flow_bp() {
  for (const BpEntry& e : bp_entries_) {
    if (!e.live || !e.paused) continue;
    Port* const up = e.upstream;
    const FlowId flow = e.flow;
    sim_.after(up->config().prop_delay, [up, flow] { up->flow_resume(flow); });
  }
  bp_entries_.clear();
  bp_ix_.clear();
  bp_live_ = 0;
}

void Port::flow_pause(FlowId flow) {
  if (!cfg_.hop_backpressure) return;
  data_q_.pause_flow(flow);
}

void Port::flow_resume(FlowId flow) {
  if (!cfg_.hop_backpressure) return;
  data_q_.resume_flow(flow);
  if (up_) try_transmit();
}

bool Port::work_queued() const {
  if (data_q_.serviceable()) return true;
  for (const CreditQueue& q : credit_qs_) {
    if (!q.empty()) return true;
  }
  return false;
}

void Port::schedule_kick() {
  if (kick_pending_) return;
  kick_pending_ = true;
  sim_.at(free_at_, [this] {
    kick_pending_ = false;
    ++kick_events_;
    try_transmit();
  });
}

void Port::try_transmit() {
  if (!up_) return;
  const sim::Time now = sim_.now();
  if (now < free_at_) {
    // Serializer busy. Every caller that can add work lands here; arm the
    // wakeup at serializer-free time once.
    if (work_queued()) schedule_kick();
    return;
  }

  Packet pkt;
  const size_t cls = pick_credit_class();
  const double cost = cls == SIZE_MAX ? 0.0 : credit_cost(cls);
  if (cls != SIZE_MAX && credit_shaper_.try_consume(cost, now)) {
    pkt = credit_qs_[cls].dequeue(now);
    class_served_[cls] += pkt.wire_bytes;
    rebase_credit_accumulators();
    ++tx_credits_;
  } else if (data_q_.serviceable() && !data_paused()) {
    pkt = data_q_.dequeue(now);
    tx_data_bytes_ += pkt.wire_bytes;
    check_pfc();
    if (cfg_.hop_backpressure) check_flow_bp(pkt.flow);
  } else if (cls != SIZE_MAX) {
    // Only shaped credits are waiting: wake up when tokens suffice.
    if (!retry_pending_) {
      const sim::Time wait = credit_shaper_.time_until(cost, now);
      // A dead shaper (zero-rate link) never accrues tokens; don't schedule
      // a wakeup at the sentinel — recovery re-kicks transmission.
      if (wait == TokenBucket::kNever) return;
      retry_pending_ = true;
      sim_.after(wait, [this] {
        retry_pending_ = false;
        ++retry_events_;
        try_transmit();
      });
    }
    return;
  } else {
    return;
  }

  ++tx_packets_;
  tx_bytes_ += pkt.wire_bytes;
  const sim::Time tx = sim::tx_time(pkt.wire_bytes, cfg_.rate_bps);
  free_at_ = now + tx;
  assert(peer_ != nullptr && "port not connected");
  // One event per transmission: the delivery at tx+prop. A serializer-done
  // kick is added only when something is already waiting to be served then
  // (scheduled before the delivery, so a same-timestamp kick fires first).
  if (work_queued()) schedule_kick();
  // The packet rides the wire in a pool slot: the capture is [this + one
  // pointer], which stays inside the event queue's inline callback buffer
  // (a by-value Packet capture would spill to the allocator every hop).
  sim::Time prop = cfg_.prop_delay;
  if (cfg_.prop_jitter > sim::Time::zero()) {
    prop = prop + sim::Time::seconds(
                      sim_.rng().uniform(0.0, cfg_.prop_jitter.to_sec()));
  }
  sim_.after(tx + prop,
             [this, r = PacketRef(std::move(pkt))]() mutable {
               deliver_to_peer(std::move(*r));
             });
}

void Port::deliver_to_peer(Packet&& p) {
  // A link cut with drop semantics loses frames already on the wire. (If the
  // link flapped down and back up before the frame's arrival instant, the
  // frame survives — the cut only claims what is in flight while it holds.)
  if (!up_ && fail_mode_ == LinkFailMode::kDrop) {
    if (is_credit_class(p.type)) {
      ++fault_.cut_credits;
    } else {
      ++fault_.cut_data;
    }
    return;
  }
  if (error_) {
    switch (error_->roll(p)) {
      case LinkError::Outcome::kDrop:
        if (is_credit_class(p.type)) {
          ++fault_.injected_credit_drops;
        } else {
          ++fault_.injected_data_drops;
        }
        return;
      case LinkError::Outcome::kCorrupt:
        p.corrupted = true;
        if (is_credit_class(p.type)) {
          ++fault_.corrupted_credits;
        } else {
          ++fault_.corrupted_data;
        }
        break;
      case LinkError::Outcome::kDeliver:
        break;
    }
  }
  peer_->owner().receive(std::move(p), *peer_);
}

void Port::fail(LinkFailMode mode) {
  fail_mode_ = mode;
  if (!up_) return;  // already down; only the (possibly escalated) mode sticks
  up_ = false;
  owner_.bump_liveness_epoch();  // invalidate cached live-candidate tables
  ++fault_.failures;
  if (mode == LinkFailMode::kDrop) {
    const sim::Time now = sim_.now();
    fault_.flushed_data += data_q_.clear(now);
    for (CreditQueue& q : credit_qs_) fault_.flushed_credits += q.clear(now);
  }
  // A failing egress must not leave flows stuck paused at upstream hops:
  // drop the pause table and lift every pause it had asserted.
  if (cfg_.hop_backpressure) release_flow_bp();
}

void Port::recover() {
  if (up_) return;
  up_ = true;
  owner_.bump_liveness_epoch();
  ++fault_.recoveries;
  credit_shaper_.reset(sim_.now());
  try_transmit();
}

void Port::set_error_model(const LinkErrorConfig& cfg, uint64_t seed) {
  error_ = std::make_unique<LinkError>(cfg, seed);
}

void Port::rebaseline_credit_class(size_t cls) {
  // A class returning from idle still carries the served-bytes counter it
  // went idle with, which is stale: the classes that stayed backlogged kept
  // accumulating, so the returning class's key (served/weight) can be
  // arbitrarily far in the past and pick_credit_class would serve it
  // exclusively until it "catches up" — monopolizing the shaped credit
  // bandwidth and starving its peers for as long as it was idle. Classic
  // WFQ restarts an arriving flow at the current virtual time; the
  // equivalent here is clamping the returning class's normalized
  // served-bytes up to the minimum over the currently backlogged classes.
  if (credit_qs_.size() == 1) return;  // no peers to rebaseline against
  double min_key = -1.0;
  for (size_t i = 0; i < credit_qs_.size(); ++i) {
    if (i == cls || credit_qs_[i].empty()) continue;
    const double key = class_served_[i] / class_weights_[i];
    if (min_key < 0.0 || key < min_key) min_key = key;
  }
  if (min_key > 0.0) {
    class_served_[cls] =
        std::max(class_served_[cls], min_key * class_weights_[cls]);
  }
}

void Port::rebase_credit_accumulators() {
  // Keep the served-byte accumulators bounded. The scheduler compares
  // normalized keys served[i]/weight[i], so the only rebase that preserves
  // the scheduling order is a *virtual-time* shift: subtract weight[i] * V
  // from every class, where V is the smallest backlogged normalized key.
  // (Subtracting a common byte count instead would shift each key by a
  // different amount — min/w[i] — and reorder unequal-weight classes.)
  // Without the rebase the accumulators only ever grow; past ~2^53 bytes a
  // double can no longer represent +84-byte increments, the largest (i.e.
  // highest-weight) accumulator freezes first, and its class monopolizes the
  // shaped bandwidth — starving low-weight classes on long campaigns.
  if (class_served_.size() == 1) {
    // Single class: the accumulator is never compared, only displayed.
    if (class_served_[0] > cfg_.wfq_rebase_bytes) class_served_[0] = 0.0;
    return;
  }
  double max_served = class_served_[0];
  for (double v : class_served_) max_served = std::max(max_served, v);
  if (max_served <= cfg_.wfq_rebase_bytes) return;
  double v_min = -1.0;
  for (size_t i = 0; i < credit_qs_.size(); ++i) {
    if (credit_qs_[i].empty()) continue;
    const double key = class_served_[i] / class_weights_[i];
    if (v_min < 0.0 || key < v_min) v_min = key;
  }
  if (v_min < 0.0) {
    // Nothing backlogged (the serve that crossed the threshold emptied the
    // last queue): anchor on the global max so everything rebases to ~0.
    // Idle classes are re-anchored by rebaseline_credit_class on return, so
    // their exact residue is irrelevant.
    for (size_t i = 0; i < class_served_.size(); ++i) {
      v_min = std::max(v_min, class_served_[i] / class_weights_[i]);
    }
  }
  // Backlogged keys sit within one credit of V (WFQ serves the minimum), so
  // their rebased values restart near zero; stale idle classes clamp at 0.
  for (size_t i = 0; i < class_served_.size(); ++i) {
    class_served_[i] =
        std::max(0.0, class_served_[i] - class_weights_[i] * v_min);
  }
}

size_t Port::pick_credit_class() const {
  // Weighted fair selection: among backlogged classes, serve the one whose
  // served-bytes / weight is smallest (deficit-style WFQ over the shaped
  // credit bandwidth).
  if (credit_qs_.size() == 1) return credit_qs_[0].empty() ? SIZE_MAX : 0;
  size_t best = SIZE_MAX;
  double best_key = 0.0;
  for (size_t i = 0; i < credit_qs_.size(); ++i) {
    if (credit_qs_[i].empty()) continue;
    const double key = class_served_[i] / class_weights_[i];
    if (best == SIZE_MAX || key < best_key) {
      best = i;
      best_key = key;
    }
  }
  return best;
}

double Port::credit_cost(size_t cls) const {
  const Packet& front = credit_qs_[cls].front();
  double cost = front.wire_bytes;
  if (shaper_noise_ > 0.0) {
    // Zero-mean noise, deterministic per credit: re-rolling on shaper
    // retries would bias admission toward cheap rolls and silently lift the
    // credit rate above the configured fraction — and the retry wait must
    // be computed against the same cost the consume will use.
    const uint64_t h =
        mix64((static_cast<uint64_t>(front.flow) << 32) ^ front.seq);
    const double u =
        static_cast<double>(h >> 11) * (1.0 / 4503599627370495.5) - 1.0;
    cost *= 1.0 + shaper_noise_ * u;
  }
  return cost;
}

void Port::enable_rcp(sim::Time d0) {
  if (rcp_) return;
  rcp_ = std::make_unique<RcpState>();
  rcp_->d0 = d0;
  rcp_->rate_bps = cfg_.rate_bps;  // flows start at the advertised rate
  sim_.after(d0, [this] { rcp_update(); });
}

void Port::rcp_update() {
  RcpState& s = *rcp_;
  const double capacity = cfg_.rate_bps;
  const double interval = s.d0.to_sec();
  const double y = static_cast<double>(s.bytes_in) * 8.0 / interval;
  const double q_bits = static_cast<double>(data_q_.bytes()) * 8.0;
  const double delta =
      (interval / s.d0.to_sec()) *
      (s.alpha * (capacity - y) - s.beta * q_bits / s.d0.to_sec()) / capacity;
  s.rate_bps = s.rate_bps * (1.0 + delta);
  s.rate_bps = std::clamp(s.rate_bps, capacity * 1e-4, capacity);
  s.bytes_in = 0;
  sim_.after(s.d0, [this] { rcp_update(); });
}

// Node methods that need Port's full definition ---------------------------

Node::~Node() = default;

Port& Node::add_port(const LinkConfig& cfg) {
  ports_.push_back(std::make_unique<Port>(sim_, *this, cfg));
  return *ports_.back();
}

}  // namespace xpass::net
