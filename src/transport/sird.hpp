// SIRD (Sender-Informed Receiver-Driven transport, arXiv:2312.15403).
//
// Like ExpressPass, the receiver paces permission-to-send packets; unlike
// it, the allocation is *informed*: senders advertise their demand (the
// flow's remaining bytes, carried in the request), and each receiver runs
// one grant allocator per host that round-robins its NIC's bandwidth over
// exactly the flows with unmet demand. Two consequences distinguish the
// protocols in the shootout:
//  * Incast: N flows into one host share one allocator pacing at the NIC
//    rate, so aggregate grants never oversubscribe the last hop — there is
//    no per-flow feedback loop that must converge (ExpressPass Algorithm 1)
//    and no credit-drop signal to wait for.
//  * Waste: grants stop the moment advertised demand is covered, so the
//    overcommit waste of blind crediting (Fig 8b / Fig 20) shrinks to the
//    grants already in flight when the tail arrives, plus a bounded
//    solicitation window per flow.
//
// Built on the receiver-driven framework: SirdConnection is a
// CreditedConnection, so its sender (demand advertised in the SYN, one MSS
// per grant, request watchdog, CREDIT_STOP) and its in-order receiver are
// ExpressPass's own; only the receiver policy below is SIRD's. A
// CreditScheduler paces each allocator's grant emissions (grants are
// kCredit-class on the wire, so the per-port credit shapers and WFQ classes
// apply unchanged), and the senders' credit use is tallied transport-wide
// for GrantAccounting.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>

#include "transport/connection.hpp"
#include "transport/credit_sched.hpp"

namespace xpass::transport {

struct SirdConfig : CreditedConfig {
  // Grant pacing jitter, same role as ExpressPass's credit jitter (Fig 6a).
  double jitter = 0.1;
  // Receiver-side solicitation window: grant-bytes in flight (granted but
  // not yet answered by data) per flow. Bounds queue buildup at the
  // granting NIC exactly like SIRD's solicitation cap; the runner sizes it
  // to ~1 BDP of the fabric.
  uint64_t solicitation_bytes = 16 * net::kMssBytes;
  // Receiver liveness/tail-recovery timer: each period without data
  // progress while grants are outstanding forgives those grants (so the
  // allocator re-solicits the missing range) and counts toward the dead
  // verdict. The runner sets this to the fabric base RTT.
  sim::Time probe_period = sim::Time::us(100);
  uint32_t receiver_dead_periods = 600;
};

// Transport-wide grant accounting (all receivers + senders of one run).
struct SirdStats {
  uint64_t grants_issued = 0;
  uint64_t grants_consumed = 0;
  uint64_t grants_wasted = 0;
};

class SirdConnection;

// One per destination host: owns the grant pump pacing that host's NIC
// rate and the round-robin rotation over flows with unmet demand. The
// rotation is kept in *activation order* (first demand first), never keyed
// by flow id — scheduling decisions must survive flow relabeling.
class SirdAllocator {
 public:
  SirdAllocator(net::Host& host, const SirdConfig& cfg, SirdStats& stats);

  // Ensure `c` is in the rotation and the pump is running. Idempotent;
  // called on demand arrival and whenever data progress reopens a flow's
  // solicitation window.
  void activate(SirdConnection* c);
  // Physically drop `c` from the rotation (connection teardown — the
  // pointer is about to dangle).
  void remove(SirdConnection* c);

 private:
  bool emit_grant();

  net::Host& host_;
  SirdStats& stats_;
  CreditScheduler sched_;
  std::deque<SirdConnection*> rotation_;
};

class SirdConnection : public CreditedConnection {
 public:
  SirdConnection(sim::Simulator& sim, const FlowSpec& spec,
                 const SirdConfig& cfg, SirdStats& stats,
                 SirdAllocator& alloc);
  ~SirdConnection() override;

  void stop() override;

  // Receiver-side: does this flow want a grant right now? (Unmet advertised
  // demand and an open solicitation window.)
  bool grantable() const;
  // Emit one MSS-worth grant (allocator only).
  void send_grant();

 private:
  friend class SirdAllocator;

  net::Host::Handler sender_handler() override;
  void receiver_on_packet(net::Packet&& p) override;
  void halt_receiver() override { sim_.cancel(probe_timer_); }
  // Once the tail is sent the receiver's probe owns recovery: the sender
  // needs no watchdog to re-advertise demand.
  bool sender_finished() const override { return tail_sent(); }
  void arm_probe();
  void on_probe();
  uint64_t outstanding_grant_bytes() const {
    return granted_bytes_ - std::min(granted_bytes_, received_bytes_);
  }

  const SirdConfig& cfg_;
  SirdStats& stats_;
  SirdAllocator& alloc_;

  // Receiver half.
  uint64_t advertised_end_ = 0;   // sender-informed demand (bytes)
  uint64_t granted_bytes_ = 0;    // grant budget issued so far
  uint64_t received_bytes_ = 0;   // payload bytes arrived (any order)
  uint64_t grant_seq_ = 0;
  bool in_rotation_ = false;
  bool probe_armed_ = false;
  sim::TimerId probe_timer_;
  uint64_t progress_at_probe_ = 0;
  uint32_t dead_periods_ = 0;
};

class SirdTransport : public Transport, public GrantAccounting {
 public:
  explicit SirdTransport(sim::Simulator& sim, SirdConfig cfg = {})
      : sim_(sim), cfg_(cfg) {}

  std::unique_ptr<Connection> create(const FlowSpec& spec) override;
  std::string_view name() const override { return "SIRD"; }
  const SirdConfig& config() const { return cfg_; }

  GrantWaste grant_waste() const override {
    return GrantWaste{stats_.grants_issued, stats_.grants_consumed,
                      stats_.grants_wasted};
  }

 private:
  SirdAllocator& allocator_for(net::Host& dst);

  sim::Simulator& sim_;
  SirdConfig cfg_;
  SirdStats stats_;
  // One allocator per destination host, created on first flow toward it.
  // NOTE: connections hold their allocator and config by reference and
  // leave the rotation in stop(); the transport must outlive its
  // connections (FlowDriver holds the transport by reference, so the
  // owner's declaration order already guarantees this).
  std::unordered_map<net::NodeId, std::unique_ptr<SirdAllocator>> allocators_;
};

}  // namespace xpass::transport
