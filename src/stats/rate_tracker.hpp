// Per-flow goodput tracking over fixed windows — feeds utilization,
// fairness-index, and convergence-time measurements.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "sim/time.hpp"

namespace xpass::stats {

class RateTracker {
 public:
  // Records `bytes` delivered for `flow` (call from receivers).
  void add(uint32_t flow, uint64_t bytes) {
    bytes_[flow] += bytes;
    cumulative_[flow] += bytes;
    total_ += bytes;
  }

  // Per-flow rates (bits/sec) accumulated since the last snapshot, then
  // resets. `window` is the elapsed time since the previous snapshot. Only
  // flows that have delivered a byte appear, in the tracker's traversal
  // order, which a sum or fairness fold over them must keep to be
  // reproducible bit-for-bit.
  std::vector<std::pair<uint32_t, double>> snapshot_rates_ordered(
      sim::Time window);
  // Same, keyed by flow id.
  std::unordered_map<uint32_t, double> snapshot_rates_by_flow(
      sim::Time window);

  uint64_t total_bytes() const { return total_; }
  // All-time delivered bytes for one flow (never reset by snapshots) — the
  // telemetry series probes sample this.
  uint64_t cumulative_bytes(uint32_t flow) const {
    auto it = cumulative_.find(flow);
    return it == cumulative_.end() ? 0 : it->second;
  }

 private:
  std::unordered_map<uint32_t, uint64_t> bytes_;
  std::unordered_map<uint32_t, uint64_t> cumulative_;
  uint64_t total_ = 0;
};

}  // namespace xpass::stats
