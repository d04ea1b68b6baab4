// Receiver-driven transport framework: the credit/grant machinery first
// written inside core::ExpressPass, extracted so every protocol that paces
// permission-to-send packets from the receiver runs the same code.
// ExpressPass (core/expresspass) and SIRD (transport/sird) are built from
// these pieces and differ only in how the receiver decides to credit.
//
// Three pieces:
//  * CreditScheduler — the receiver-side shaped-emission pump. Paces one
//    credit/grant per data-MTU cycle at a caller-supplied target rate, with
//    multiplicative jitter (the Fig-6a desynchronization fix). The network
//    side of the shaping — the per-port TokenBucket credit meters and the
//    WFQ credit classes — already lives in net::Port and applies to
//    anything the pump emits as a kCredit-class packet; the pump is the
//    endpoint half of that machinery.
//  * GrantLedger — the sender-side accounting of permissions received:
//    every credit/grant that arrives is eventually consumed (answered with
//    data), or wasted/expired (nothing to send). Conservation
//    (granted == consumed + wasted + outstanding) holds by construction;
//    the waste ratio is the Fig-20 metric.
//  * CreditedConnection — the endpoint both protocols run identically: the
//    Fig-7 sender (credit request, request watchdog, one data packet per
//    credit, CREDIT_STOP) and the receiver's in-order edge. A derived
//    connection supplies only its receiver policy: when to credit, and how
//    fast.
//
// GrantAccounting is the transport-level reporting hook: the scenario
// engine asks any transport that implements it for a per-protocol
// credit/grant-waste scalar ("proactive.waste_ratio" in recorder output).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>

#include "net/packet.hpp"
#include "net/ring_buffer.hpp"
#include "sim/simulator.hpp"
#include "transport/connection.hpp"

namespace xpass::transport {

// Receiver-side credit/grant pacing pump. The caller supplies the current
// target data rate and an emit callback that builds and sends one
// credit/grant packet; the pump owns the timer, the cycle arithmetic, and
// the pacing jitter. Emission draws (the emit callback's own randomization
// first, then the pump's gap jitter) happen in a fixed order per cycle, so
// a protocol ported onto the pump reproduces its pre-extraction RNG stream
// exactly.
class CreditScheduler {
 public:
  struct Config {
    // Pacing jitter as a fraction of the inter-credit gap (Fig 6a).
    double jitter = 0.1;
    // Wire bytes one emission admits: a credit plus the MTU it triggers.
    uint32_t cycle_bytes = net::kCreditCycleBytes;
  };

  // `rate` supplies the current target data rate in bps (never zero while
  // running); `emit` sends one credit/grant, returning false to end the
  // pump (e.g. the flow failed under the timer).
  CreditScheduler(sim::Simulator& sim, Config cfg,
                  std::function<double()> rate, std::function<bool()> emit)
      : sim_(sim),
        cfg_(cfg),
        rate_(std::move(rate)),
        emit_(std::move(emit)) {}
  ~CreditScheduler() { stop(); }
  CreditScheduler(const CreditScheduler&) = delete;
  CreditScheduler& operator=(const CreditScheduler&) = delete;

  // Arms the first emission one (jittered) pacing gap from now.
  void start();
  // Cancels the pending emission; start() re-arms.
  void stop();
  bool running() const { return running_; }
  uint64_t emitted() const { return emitted_; }

  // The pacing law, unit-testable in isolation: one cycle_bytes-sized
  // credit+data exchange per gap at `rate_bps` of data throughput.
  static double gap_sec(double rate_bps, uint32_t cycle_bytes) {
    return static_cast<double>(cycle_bytes) * 8.0 / rate_bps;
  }

 private:
  void fire();
  void schedule_next();

  sim::Simulator& sim_;
  Config cfg_;
  std::function<double()> rate_;
  std::function<bool()> emit_;
  bool running_ = false;
  uint64_t emitted_ = 0;
  sim::TimerId timer_;
};

// Sender-side permission accounting, in caller-chosen units
// (CreditedConnection: one unit per credit or grant). consume()/waste()
// clamp to what is outstanding and return what they actually moved, so the
// conservation identity granted == consumed + wasted + outstanding can
// never break.
class GrantLedger {
 public:
  void grant(uint64_t units = 1) { granted_ += units; }
  uint64_t consume(uint64_t units = 1) {
    const uint64_t n = units < outstanding() ? units : outstanding();
    consumed_ += n;
    return n;
  }
  uint64_t waste(uint64_t units = 1) {
    const uint64_t n = units < outstanding() ? units : outstanding();
    wasted_ += n;
    return n;
  }

  uint64_t granted() const { return granted_; }
  uint64_t consumed() const { return consumed_; }
  uint64_t wasted() const { return wasted_; }
  uint64_t outstanding() const { return granted_ - consumed_ - wasted_; }
  double waste_ratio() const {
    return granted_ > 0
               ? static_cast<double>(wasted_) / static_cast<double>(granted_)
               : 0.0;
  }

 private:
  uint64_t granted_ = 0;
  uint64_t consumed_ = 0;
  uint64_t wasted_ = 0;
};

// Aggregate credit/grant bookkeeping a receiver-driven transport exposes to
// the scenario engine (per-protocol waste scalar in recorder output).
struct GrantWaste {
  uint64_t issued = 0;    // credits/grant-units issued by receivers
  uint64_t consumed = 0;  // units answered with data
  uint64_t wasted = 0;    // units that elicited nothing (incl. expired)
  double waste_ratio() const {
    return issued > 0
               ? static_cast<double>(wasted) / static_cast<double>(issued)
               : 0.0;
  }
};

class GrantAccounting {
 public:
  virtual ~GrantAccounting() = default;
  virtual GrantWaste grant_waste() const = 0;
};

// Sender timing of a credited connection (Fig 7a), shared by every
// protocol built on CreditedConnection.
struct CreditedConfig {
  // Sender retries the credit request if no credit arrives (Fig 7 timeout).
  // This is also the watchdog base interval: whenever a watchdog period
  // passes with zero credits arriving, the sender re-sends the request.
  sim::Time request_timeout = sim::Time::us(400);
  // Dead-path survival. Consecutive silent watchdog periods back off
  // exponentially (doubling up to the cap, +/- jitter fraction so a rack's
  // worth of flows doesn't re-request in lockstep after a link recovers);
  // after max_dead_retries consecutive silent periods the flow aborts
  // gracefully instead of re-requesting forever. Credits flowing again at
  // any point reset the backoff and the retry budget.
  double request_backoff = 2.0;
  sim::Time request_timeout_cap = sim::Time::ms(25);
  double request_jitter = 0.2;
  uint32_t max_dead_retries = 12;
  // CREDIT_STOP is a single unacknowledged control packet; if it is lost
  // the receiver credits forever. The sender re-sends it whenever credits
  // are still arriving this long after the last stop went out.
  sim::Time stop_retx_interval = sim::Time::us(400);
};

// One receiver-driven flow: the Fig-7 sender and the receiver's in-order
// edge, with the receiver's crediting policy left to the derived class.
//
//   sender --SYN(credit request, seq = flow size)--> receiver
//   receiver credits by its own policy (receiver_on_packet)
//   sender answers each credit with one data packet after a sampled host
//     credit-processing delay (in order); credits with nothing to send are
//     wasted (Fig 8b / Fig 20)
//   sender --CREDIT_STOP--> receiver once every byte is acknowledged (the
//     credit's cum-ack field doubles as the loss-recovery signal: if it
//     regresses below what was sent, the sender goes back and resends).
//
// The config is held by reference: the transport that created the
// connection must outlive it. A derived class calls stop() from its own
// destructor, while its halt_receiver() can still run.
class CreditedConnection : public Connection {
 public:
  CreditedConnection(sim::Simulator& sim, const FlowSpec& spec,
                     const CreditedConfig& timing)
      : Connection(sim, spec), timing_(timing) {}

  void start() override;
  void stop() override;

  // Sender-side permission accounting (one unit per credit/grant).
  const GrantLedger& ledger() const { return ledger_; }
  // Host-release data sends scheduled but not yet on the wire.
  size_t pending_releases() const { return release_timers_.size(); }
  uint64_t requests_sent() const { return requests_sent_; }
  uint64_t credit_stops_sent() const { return credit_stops_sent_; }

 protected:
  // What the sender did with one packet that reached it.
  enum class CreditUse { kConsumed, kWasted, kIgnored };

  // The sender's packet handler, registered once per start(). The default
  // answers every credit; a protocol that tallies credit use across its
  // transport wraps answer_credit() instead.
  virtual net::Host::Handler sender_handler();
  // Receiver policy: every packet for this flow that reaches the
  // receiver, while the flow has not failed.
  virtual void receiver_on_packet(net::Packet&& p) = 0;
  // Cancels the receiver's crediting timers (crediting is over for good).
  virtual void halt_receiver() = 0;
  // The sender half needs no more watchdog periods.
  virtual bool sender_finished() const = 0;

  // Sender (Fig 7a): answers one credit with one data packet, or wastes it
  // when there is nothing left to send.
  CreditUse answer_credit(const net::Packet& p);
  // Every byte of a finite flow has been handed to the host.
  bool tail_sent() const {
    return spec_.size_bytes != kLongRunning && snd_nxt_ >= spec_.size_bytes;
  }
  bool stop_sent() const { return stop_sent_; }
  bool started() const { return started_; }

  // Receiver: advances the in-order edge past data packet `p` and returns
  // true once every byte up to the FIN has arrived.
  bool receive_data(const net::Packet& p);
  // Crediting ends for good: CREDIT_STOP arrived, or every byte did.
  void finish_receiver() {
    done_ = true;
    halt_receiver();
  }
  // Settles the flow as failed and stops both halves' timers.
  void abort_flow(const std::string& why);

  // Latched once crediting ends for good (CREDIT_STOP received, every byte
  // up to the FIN arrived, or the flow aborted): a retransmitted request
  // that was still in flight must not restart crediting a finished flow.
  bool done_ = false;
  uint64_t rcv_next_ = 0;  // in-order bytes received

 private:
  void send_request();
  void send_credit_stop();
  void arm_watchdog();
  void on_watchdog();

  const CreditedConfig& timing_;
  bool started_ = false;

  // Sender state (Fig 7a).
  uint64_t snd_nxt_ = 0;  // next byte to send
  bool stop_sent_ = false;
  sim::Time host_release_;  // host processing is FIFO: departures in order
  sim::Time last_data_sent_;  // guards loss-recovery against stale credits
  sim::TimerId request_timer_;  // doubles as the dead-path watchdog
  sim::Time cur_request_timeout_;   // current (backed-off) watchdog period
  uint32_t dead_retries_ = 0;       // consecutive silent watchdog periods
  uint64_t credits_at_last_watchdog_ = 0;
  sim::Time last_stop_time_;        // last CREDIT_STOP departure
  uint64_t requests_sent_ = 0;
  uint64_t credit_stops_sent_ = 0;
  // Scheduled host-release sends, oldest first (releases are FIFO, so the
  // front is always the next to fire). Cancelled in stop(): a connection
  // destroyed with a release in flight must not fire into freed memory.
  // RingBuffer rather than std::deque: a deque in steady state allocates and
  // frees a block every few hundred releases; the ring recycles its slots.
  net::RingBuffer<sim::TimerId> release_timers_;
  // Every credit received is consumed (answered with data) or wasted.
  GrantLedger ledger_;

  // Receiver state (Fig 7b).
  uint64_t fin_end_ = 0;  // flow length, learned from the FIN flag
  std::map<uint64_t, uint32_t> rcv_ooo_;  // reassembly (packet spraying)
};

}  // namespace xpass::transport
