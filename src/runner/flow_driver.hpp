// FlowDriver: schedules flows on a Transport, collects FCTs and goodput.
//
// This is the top of the public API: build a Topology, pick a Transport,
// hand the driver a list of FlowSpecs (from workload/ generators or by
// hand), run the simulator, read the collectors.
#pragma once

#include <algorithm>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "stats/fct.hpp"
#include "stats/rate_tracker.hpp"
#include "stats/recorder.hpp"
#include "transport/connection.hpp"

namespace xpass::runner {

class FlowDriver {
 public:
  FlowDriver(sim::Simulator& sim, transport::Transport& transport)
      : sim_(sim), transport_(transport) {}

  // The transport all flows are created through (scalar extraction probes
  // it for optional capabilities, e.g. transport::GrantAccounting).
  transport::Transport& transport() const { return transport_; }

  // Schedules creation + start of the flow at spec.start_time. Returns the
  // connection (owned by the driver) so callers may re-hook callbacks or
  // inspect protocol state.
  transport::Connection& add(const transport::FlowSpec& spec);
  void add_all(const std::vector<transport::FlowSpec>& specs) {
    for (const auto& s : specs) add(s);
  }

  // Mixed-protocol (coexistence) flows: create through `t` instead of the
  // primary transport and tag the flow with a group index for per-group
  // result extraction. The global collectors (fcts(), rates(),
  // scheduled()/completed()/failed()) still see every grouped flow.
  transport::Connection& add_grouped(const transport::FlowSpec& spec,
                                     transport::Transport& t, size_t group);

  // Per-group collectors (empty unless add_grouped was used).
  size_t group_count() const { return groups_.size(); }
  size_t group_scheduled(size_t g) const { return groups_[g]->scheduled; }
  size_t group_completed(size_t g) const {
    return groups_[g]->fcts.completed();
  }
  size_t group_failed(size_t g) const { return groups_[g]->failed; }
  const stats::FctCollector& group_fcts(size_t g) const {
    return groups_[g]->fcts;
  }
  // Group index of a flow id, or SIZE_MAX for ungrouped flows.
  size_t group_of(uint32_t flow_id) const {
    auto it = std::lower_bound(
        flow_group_.begin(), flow_group_.end(), flow_id,
        [](const auto& e, uint32_t id) { return e.first < id; });
    return it != flow_group_.end() && it->first == flow_id ? it->second
                                                          : SIZE_MAX;
  }

  // Runs until every scheduled flow is settled (completed or failed) or
  // `deadline` passes. Returns true iff everything *completed* — aborted
  // flows end the wait but still count as a false result.
  bool run_to_completion(sim::Time deadline);

  size_t scheduled() const { return scheduled_; }
  size_t completed() const { return fcts_.completed(); }
  // Flows the protocol gave up on (endpoint unreachable past the retry
  // budget). completed() + failed() == scheduled() once everything settled.
  size_t failed() const { return failed_; }
  stats::FctCollector& fcts() { return fcts_; }
  stats::RateTracker& rates() { return rates_; }

  const std::vector<std::unique_ptr<transport::Connection>>& connections()
      const {
    return conns_;
  }
  // Stops every connection (cancels timers, unregisters handlers).
  void stop_all();

  // Telemetry hook: registers the scheduling counters as pull probes
  // ("flows.scheduled", "flows.completed", "flows.failed") and, when
  // `per_flow_series` is set, one "flow.<id>.bytes" series gauge per
  // already-added flow (cumulative delivered bytes — sampling never resets
  // the goodput windows).
  void register_telemetry(stats::Recorder& r, bool per_flow_series = false) {
    r.gauge("flows.scheduled",
            [this] { return static_cast<double>(scheduled()); });
    r.gauge("flows.completed",
            [this] { return static_cast<double>(completed()); });
    r.gauge("flows.failed", [this] { return static_cast<double>(failed()); });
    if (per_flow_series) {
      for (const auto& c : conns_) {
        const transport::Connection* conn = c.get();
        r.series_gauge("flow." + std::to_string(conn->spec().id) + ".bytes",
                       [conn] {
                         return static_cast<double>(conn->delivered_bytes());
                       });
      }
    }
  }

 private:
  // Per-group sinks for coexistence runs.
  struct GroupStats {
    size_t scheduled = 0;
    size_t failed = 0;
    stats::FctCollector fcts;
  };

  sim::Simulator& sim_;
  transport::Transport& transport_;
  std::vector<std::unique_ptr<transport::Connection>> conns_;
  stats::FctCollector fcts_;
  stats::RateTracker rates_;
  std::vector<std::unique_ptr<GroupStats>> groups_;   // empty = ungrouped
  std::vector<std::pair<uint32_t, size_t>> flow_group_;  // sorted by flow id
  size_t scheduled_ = 0;
  size_t failed_ = 0;
};

}  // namespace xpass::runner
