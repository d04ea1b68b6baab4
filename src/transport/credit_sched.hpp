// Receiver-driven transport framework: the credit/grant primitives that
// were hard-wired into core::ExpressPass, extracted so other proactive
// protocols (SIRD's sender-informed grants, and anything else that paces
// permission-to-send packets from the receiver) can share them.
//
// Two pieces:
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
//
// GrantAccounting is the transport-level reporting hook: the scenario
// engine asks any transport that implements it for a per-protocol
// credit/grant-waste scalar ("proactive.waste_ratio" in recorder output).
#pragma once

#include <cstdint>
#include <functional>

#include "net/packet.hpp"
#include "sim/simulator.hpp"

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

// Sender-side permission accounting, in caller-chosen units (ExpressPass:
// one unit per credit; SIRD: bytes). consume()/waste() clamp to what is
// outstanding and return what they actually moved, so the conservation
// identity granted == consumed + wasted + outstanding can never break.
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

}  // namespace xpass::transport
