// Port: one direction of a full-duplex link, with the ExpressPass egress
// discipline.
//
// Each port owns a data drop-tail queue and a tiny credit queue shaped by a
// token bucket at 84/1622 of link capacity (burst: 2 credits). The scheduler
// serves a credit whenever the shaper permits (credits are strictly
// prioritized but can never exceed ~5% of the link); otherwise it serves
// data. This is exactly the commodity-switch configuration of §3.1 — a
// separate metered queue for tagged credit packets, buffer-carved to a few
// packets.
#pragma once

#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "net/link_error.hpp"
#include "net/packet_pool.hpp"
#include "net/queue.hpp"
#include "net/token_bucket.hpp"
#include "sim/simulator.hpp"

namespace xpass::net {

class Node;

// What happens to queued and in-flight frames when a link fails.
//  kDrain: transmission stops but nothing is lost — queued frames wait for
//          recovery, in-flight frames deliver (admin-down / graceful drain).
//  kDrop:  queued frames are flushed as drops and in-flight frames are cut
//          mid-wire (yanked cable / dead transceiver).
enum class LinkFailMode { kDrain, kDrop };

// Per-port fault accounting, all injected-fault effects in one place so
// invariant checks can close the conservation ledger: every credit the
// network loses shows up in exactly one counter somewhere (queue drop,
// error-model drop, in-flight cut, host FCS discard, or unroutable).
struct FaultStats {
  uint64_t injected_data_drops = 0;    // error-model drops, non-credit
  uint64_t injected_credit_drops = 0;  // error-model drops, credits
  uint64_t corrupted_data = 0;         // frames delivered with bad FCS
  uint64_t corrupted_credits = 0;
  uint64_t cut_data = 0;     // in flight when the link failed (kDrop)
  uint64_t cut_credits = 0;
  uint64_t flushed_data = 0;     // queued at failure time (kDrop); these
  uint64_t flushed_credits = 0;  // also count in the queues' drop stats
  uint64_t failures = 0;
  uint64_t recoveries = 0;
};

struct LinkConfig {
  double rate_bps = 10e9;
  sim::Time prop_delay = sim::Time::us(1);
  DropTailQueue::Config data_queue;
  size_t credit_queue_pkts = 8;
  // Shaper rate as a fraction of link bytes; provisioned at the mean
  // randomized credit size so the admitted credit *count* is exactly one
  // per MTU-cycle (see packet.hpp).
  double credit_rate_fraction =
      static_cast<double>(kCreditMeanWireBytes) / kCreditCycleBytes;
  double credit_burst_bytes = 2.0 * kCreditMeanWireBytes;
  // Hosts rate-limit credits too (§3.1: "the host and switch perform
  // credit rate-limiting at each switch port" — the host limiter protects
  // its own downlink, the incast port). But the host limiter is SoftNIC's
  // *software* rate limiter, which §5 measures at a few microseconds of
  // jitter; re-gridding credits on an exact token clock would resurrect
  // the drop-synchronization problem of Fig 6a. We model the software
  // limiter by randomizing each credit's token cost by +/- this fraction
  // (zero mean, so the long-run rate is exact). Switch metering (Broadcom
  // hardware) stays precise; its drain jitter comes from the randomized
  // credit sizes.
  double host_credit_shaper_noise = 0.6;
  bool host_shapes_credits = true;
  // Multi-class credit scheduling (§7 "Multiple traffic classes"): one
  // credit queue per weight; the shaped credit bandwidth is divided among
  // backlogged classes in proportion to their weights, which translates
  // directly into weighted sharing of the *data* bandwidth the credits
  // admit. Empty = single class. A very large weight approximates strict
  // prioritization.
  std::vector<double> credit_class_weights;
  // Priority flow control (the hop-by-hop backpressure RDMA deployments
  // lean on, and the mechanism ExpressPass makes unnecessary). When an
  // egress data queue exceeds pause_bytes, the switch pauses data on all
  // its ingress links until the queue drains below resume_bytes. Coarse
  // (whole-switch) pause, which exhibits PFC's real HOL-blocking behavior.
  bool pfc = false;
  uint64_t pfc_pause_bytes = 150'000;
  uint64_t pfc_resume_bytes = 75'000;
  // Per-hop flow-level backpressure (BFC). The egress data queue runs in
  // per-flow mode (round-robin service over flows); when one flow's backlog
  // at this egress exceeds flow_pause_bytes, the switch pauses that flow —
  // and only that flow — at the upstream hop it arrived from, resuming once
  // it drains below flow_resume_bytes. Contrast with pfc above, which
  // pauses every ingress link wholesale (the HOL-blocking this fixes).
  // Upstream state is bounded: the pause table tracks only flows currently
  // queued or paused here, in arrival order (flow-relabel invariant).
  // Inert for every existing protocol (plain FIFO, no signaling).
  bool hop_backpressure = false;
  uint64_t flow_pause_bytes = 8 * kMaxWireBytes;
  uint64_t flow_resume_bytes = 4 * kMaxWireBytes;
  // WFQ accumulator rebase threshold. The per-class served-byte
  // accumulators only ever grow; past ~2^53 bytes a double can no longer
  // represent +84-byte increments and low-weight classes starve. When the
  // largest accumulator crosses this many bytes, the current virtual time
  // (minimum served/weight key) is subtracted from every class in weight
  // units — only relative deficits matter for the scheduling order, so the
  // rebase is behavior-neutral while keeping the values far below the
  // quantization cliff. (Tests shrink it to exercise the path.)
  double wfq_rebase_bytes = 1.1e12;  // ~1 TB served, hours of sim time
  // Per-packet propagation jitter: each delivery adds U(0, prop_jitter) to
  // prop_delay, drawn from the simulator RNG. Models wifi-style variable
  // last hops / late-comer real-time scenarios; note a draw wider than one
  // serialization time can reorder packets on the wire (which is the point
  // — reactive stacks must ride out the dup-ACKs). Zero (default) draws
  // nothing, keeping unjittered runs byte-identical.
  sim::Time prop_jitter = sim::Time::zero();
};

// Per-port RCP state (enabled only for RCP runs). Implements the classic
// rate update R += R * (T/d0) * (alpha*(C - y) - beta*q/d0) / C.
struct RcpState {
  double rate_bps = 0.0;  // advertised per-flow rate R
  double alpha = 0.4;
  double beta = 0.2;
  sim::Time d0 = sim::Time::us(100);  // control interval / average RTT
  uint64_t bytes_in = 0;              // data bytes arrived since last update
};

class Port {
 public:
  Port(sim::Simulator& sim, Node& owner, LinkConfig cfg);

  // Wires this port to its peer (the other end of the link). Done by
  // Topology::connect.
  void set_peer(Port* peer) { peer_ = peer; }
  Port* peer() { return peer_; }
  Node& owner() { return owner_; }

  // Entry point: classify and queue the packet, start transmitting if idle.
  void enqueue(Packet&& p);

  const LinkConfig& config() const { return cfg_; }
  DropTailQueue& data_queue() { return data_q_; }
  const DropTailQueue& data_queue() const { return data_q_; }
  // Class-0 credit queue (the only one in single-class operation).
  CreditQueue& credit_queue() { return credit_qs_[0]; }
  const CreditQueue& credit_queue() const { return credit_qs_[0]; }
  CreditQueue& credit_queue(size_t cls) { return credit_qs_[cls]; }
  size_t num_credit_classes() const { return credit_qs_.size(); }
  // WFQ served-byte accumulators (post-rebase relative values; tests).
  const std::vector<double>& credit_class_served() const {
    return class_served_;
  }

  // RCP support: switches with RCP enabled update/stamp through these.
  void enable_rcp(sim::Time d0);
  RcpState* rcp() { return rcp_.get(); }

  uint64_t tx_packets() const { return tx_packets_; }
  uint64_t tx_bytes() const { return tx_bytes_; }
  uint64_t tx_data_bytes() const { return tx_data_bytes_; }
  uint64_t tx_credits() const { return tx_credits_; }
  // Event accounting (the fig15 work counters zero_alloc_test pins):
  // serializer-free service wakeups and shaper token-wait retries fired.
  uint64_t kick_events() const { return kick_events_; }
  uint64_t retry_events() const { return retry_events_; }

  // PFC: pause/unpause *data* transmission out of this port (credits and
  // control packets keep flowing — they are a different priority class).
  // Reference-counted: several congested egresses may pause one link.
  void pfc_pause() {
    ++pause_count_;
    ++pause_events_;
  }
  void pfc_resume();
  bool data_paused() const { return pause_count_ > 0; }
  uint64_t pause_events() const { return pause_events_; }

  // Per-hop flow-level backpressure (LinkConfig::hop_backpressure).
  // note_flow_ingress: the owning switch records, per queued flow, the
  // upstream transmitter the flow last arrived from (the pause target).
  // flow_pause/flow_resume arrive from a downstream hop and gate just that
  // flow's queue on this port. All of it is inert unless the flag is set.
  void note_flow_ingress(FlowId flow, Port* upstream);
  void flow_pause(FlowId flow);
  void flow_resume(FlowId flow);
  uint64_t flow_pause_events() const { return flow_pause_events_; }
  // Flows currently tracked in this egress's pause table (bounded-state
  // introspection for tests).
  size_t bp_tracked_flows() const { return bp_live_; }

  // Link-failure modeling (§3.1 mentions excluding failed links from ECMP;
  // route() excludes a link unless both directions are up).
  bool is_up() const { return up_; }
  // Takes this direction of the link down. kDrop flushes the queues (counted
  // as drops) and loses frames already on the wire; kDrain preserves both.
  void fail(LinkFailMode mode);
  // Brings the link back: the credit meter restarts empty (a recovering
  // link must not burst out the allowance accrued while dark) and
  // transmission resumes from whatever is queued.
  void recover();

  // Fault injection: per-frame error model on this direction of the link.
  void set_error_model(const LinkErrorConfig& cfg, uint64_t seed);
  void clear_error_model() { error_.reset(); }
  const FaultStats& fault_stats() const { return fault_; }

 private:
  void try_transmit();
  // Ensures a service wakeup fires when the serializer frees (at
  // free_at_). Idempotent: at most one kick is outstanding per port.
  void schedule_kick();
  // Anything queued that the scheduler could serve next?
  bool work_queued() const;
  // Runs at wire-arrival time: applies link failure / error-model fate,
  // then hands the frame to the peer's owner.
  void deliver_to_peer(Packet&& p);
  void rcp_update();
  // PFC threshold checks on this egress queue; pauses/resumes the owning
  // switch's ingress links.
  void check_pfc();
  void signal_pfc(bool pause);
  // Flow-level backpressure thresholds for one flow's backlog on this
  // egress (called after its enqueues/dequeues); signals the flow's
  // recorded upstream hop and tombstones drained entries.
  void check_flow_bp(FlowId flow);
  // Drops the pause table, resuming anything still paused upstream (link
  // failure must not leave a flow stuck paused forever).
  void release_flow_bp();
  // The backlogged credit class next in weighted order; SIZE_MAX if none.
  size_t pick_credit_class() const;
  // Re-anchors an idle class's WFQ deficit as it becomes backlogged, so a
  // long-idle class cannot monopolize the shaped credit bandwidth.
  void rebaseline_credit_class(size_t cls);
  // Keeps the served-byte accumulators bounded (relative deficits only);
  // see LinkConfig::wfq_rebase_bytes.
  void rebase_credit_accumulators();
  // Shaper cost of the head credit of class `cls` (includes the host
  // software-limiter noise, deterministic per credit).
  double credit_cost(size_t cls) const;

  sim::Simulator& sim_;
  Node& owner_;
  LinkConfig cfg_;
  bool shape_credits_;
  double shaper_noise_;
  Port* peer_ = nullptr;

  DropTailQueue data_q_;
  std::vector<CreditQueue> credit_qs_;
  std::vector<double> class_weights_;
  std::vector<double> class_served_;  // credit bytes served per class
  TokenBucket credit_shaper_;
  std::unique_ptr<RcpState> rcp_;

  // Serializer state machine: the port is busy until free_at_. Instead of
  // an unconditional tx-done event per transmission, a single delivery
  // event is scheduled at tx+prop, and a service "kick" at free_at_ only
  // when queued work will actually be waiting there (self-scheduling).
  sim::Time free_at_;
  bool kick_pending_ = false;
  bool retry_pending_ = false;
  uint32_t pause_count_ = 0;
  uint64_t pause_events_ = 0;
  bool pause_sent_ = false;  // this egress has paused its switch's ingresses
  // Flow-level pause table (hop_backpressure): per queued-or-paused flow,
  // its upstream transmitter and whether we paused it there. Kept in
  // arrival order with tombstones + periodic compaction: iteration order
  // never depends on flow-id values (relabel invariance), and the live set
  // is bounded by the flows actually queued here.
  struct BpEntry {
    FlowId flow;
    Port* upstream;
    bool paused;
    bool live;
  };
  std::vector<BpEntry> bp_entries_;
  std::unordered_map<FlowId, size_t> bp_ix_;
  size_t bp_live_ = 0;
  uint64_t flow_pause_events_ = 0;
  bool up_ = true;
  LinkFailMode fail_mode_ = LinkFailMode::kDrain;
  std::unique_ptr<LinkError> error_;
  FaultStats fault_;

  uint64_t tx_packets_ = 0;
  uint64_t tx_bytes_ = 0;
  uint64_t tx_data_bytes_ = 0;
  uint64_t tx_credits_ = 0;
  uint64_t kick_events_ = 0;
  uint64_t retry_events_ = 0;
};

}  // namespace xpass::net
