#include "sim/invariants.hpp"

namespace xpass::sim {

void InvariantChecker::add_check(std::string name, Check fn) {
  checks_.emplace_back(std::move(name), std::move(fn));
}

void InvariantChecker::start(Time period) {
  if (running_) return;
  running_ = true;
  period_ = period;
  schedule_sweep();
}

void InvariantChecker::schedule_sweep() {
  timer_ = sim_.after(period_, [this] {
    run_checks();
    if (running_) schedule_sweep();
  });
}

void InvariantChecker::stop() {
  if (!running_) return;
  running_ = false;
  sim_.cancel(timer_);
}

void InvariantChecker::run_checks() {
  ++sweeps_;
  check_monotonic();
  for (const auto& [name, fn] : checks_) {
    std::string msg = fn();
    if (!msg.empty()) {
      violation("invariant '" + name + "' violated at " + sim_.now().str() +
                ": " + msg);
    }
  }
}

void InvariantChecker::report(std::string_view name,
                              std::string_view details) {
  check_monotonic();
  violation("invariant '" + std::string(name) + "' violated at " +
            sim_.now().str() + ": " + std::string(details));
}

void InvariantChecker::check_monotonic() {
  const Time now = sim_.now();
  if (now < last_seen_now_) {
    violation("event-time monotonicity: now " + now.str() +
              " regressed below previously observed " + last_seen_now_.str());
  }
  last_seen_now_ = now;
}

void InvariantChecker::violation(std::string msg) {
  ++violations_;
  if (messages_.size() < kMaxMessages) messages_.push_back(msg);
}

}  // namespace xpass::sim
