// Connection: one flow's sender+receiver endpoint pair, created by a
// Transport factory. Subclasses implement the protocol; the base tracks
// delivery, completion, and goodput. A flow settles exactly once, either
// completed or failed; a settled flow is final.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "net/host.hpp"
#include "sim/simulator.hpp"
#include "stats/rate_tracker.hpp"
#include "transport/flow.hpp"

namespace xpass::transport {

class Connection {
 public:
  Connection(sim::Simulator& sim, const FlowSpec& spec)
      : sim_(sim), spec_(spec) {}
  virtual ~Connection() = default;
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  // Begins the flow (handshake / first transmission). Called at
  // spec.start_time by the flow driver.
  virtual void start() = 0;
  // Tears down timers/handlers; called on simulation teardown.
  virtual void stop() {}

  const FlowSpec& spec() const { return spec_; }
  uint64_t delivered_bytes() const { return delivered_; }
  bool completed() const { return settled_ == kCompleted; }
  sim::Time completion_time() const { return completion_time_; }
  sim::Time fct() const { return completion_time_ - spec_.start_time; }

  // True once the protocol gave up on the flow (endpoint unreachable past
  // its retry budget). A failed flow is settled: it will make no further
  // progress, but it never "completes".
  bool failed() const { return settled_ == kFailed; }
  const std::string& fail_reason() const { return fail_reason_; }

  void set_on_complete(std::function<void(Connection&)> cb) {
    on_complete_ = std::move(cb);
  }
  void set_on_fail(std::function<void(Connection&)> cb) {
    on_fail_ = std::move(cb);
  }
  void set_rate_tracker(stats::RateTracker* rt) { tracker_ = rt; }

 protected:
  // Receiver-side: `bytes` of new in-order payload arrived.
  void deliver(uint64_t bytes) {
    delivered_ += bytes;
    if (tracker_ != nullptr) tracker_->add(spec_.id, bytes);
    if (spec_.size_bytes != kLongRunning && delivered_ >= spec_.size_bytes &&
        settled_ == kOpen) {
      settled_ = kCompleted;
      completion_time_ = sim_.now();
      if (on_complete_) on_complete_(*this);
    }
  }

  // Protocol-side: give up on the flow (graceful abort after exhausting
  // retries against a dead path). Idempotent; completed flows cannot fail.
  void fail_flow(std::string reason) {
    if (settled_ != kOpen) return;
    settled_ = kFailed;
    fail_reason_ = std::move(reason);
    if (on_fail_) on_fail_(*this);
  }

  sim::Simulator& sim_;
  FlowSpec spec_;

 private:
  enum : uint8_t { kOpen = 0, kCompleted = 1, kFailed = 2 };

  uint64_t delivered_ = 0;
  uint8_t settled_ = kOpen;
  std::string fail_reason_;
  sim::Time completion_time_;
  std::function<void(Connection&)> on_complete_;
  std::function<void(Connection&)> on_fail_;
  stats::RateTracker* tracker_ = nullptr;
};

// Protocol factory.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual std::unique_ptr<Connection> create(const FlowSpec& spec) = 0;
  virtual std::string_view name() const = 0;
};

}  // namespace xpass::transport
