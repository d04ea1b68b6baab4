// InvariantChecker: cross-cutting runtime assertions over a live simulation.
//
// Scenario harnesses register named checks (credit conservation, queue
// bounds, ...); the checker sweeps them on a fixed period, and instrumented
// code paths can report() a violation directly. Event-time monotonicity is
// verified built-in on every sweep and report.
//
// Always compiled in, in every build. Violations are counted and the first
// few messages retained, so a harness (or a test that injects a bug the
// checker must catch) observes them; the cost is one periodic sweep and
// nothing on the fast path.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/simulator.hpp"

namespace xpass::sim {

class InvariantChecker {
 public:
  explicit InvariantChecker(Simulator& sim) : sim_(sim) {}
  ~InvariantChecker() { stop(); }
  InvariantChecker(const InvariantChecker&) = delete;
  InvariantChecker& operator=(const InvariantChecker&) = delete;

  // A check returns an empty string when the invariant holds, else a
  // description of the violation.
  using Check = std::function<std::string()>;
  void add_check(std::string name, Check fn);

  // Begins periodic sweeps every `period` (first sweep one period from now).
  void start(Time period);
  void stop();
  // One sweep, immediately. Safe to call whether or not started.
  void run_checks();

  // Immediate violation entry point for instrumented code paths.
  void report(std::string_view name, std::string_view details);

  uint64_t violations() const { return violations_; }
  uint64_t sweeps() const { return sweeps_; }
  // First kMaxMessages violation messages, for diagnostics.
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  void violation(std::string msg);
  void check_monotonic();
  void schedule_sweep();

  static constexpr size_t kMaxMessages = 32;

  Simulator& sim_;
  std::vector<std::pair<std::string, Check>> checks_;
  TimerId timer_;
  Time period_;
  bool running_ = false;
  Time last_seen_now_;  // event-time monotonicity guard
  uint64_t violations_ = 0;
  uint64_t sweeps_ = 0;
  std::vector<std::string> messages_;
};

}  // namespace xpass::sim
