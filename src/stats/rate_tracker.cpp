#include "stats/rate_tracker.hpp"

#include <utility>

namespace xpass::stats {

std::vector<std::pair<uint32_t, double>> RateTracker::snapshot_rates_ordered(
    sim::Time window) {
  std::vector<std::pair<uint32_t, double>> out;
  out.reserve(bytes_.size());
  const double sec = window.to_sec();
  for (auto& [flow, b] : bytes_) {
    out.emplace_back(flow,
                     sec > 0 ? static_cast<double>(b) * 8.0 / sec : 0.0);
    b = 0;
  }
  return out;
}

std::unordered_map<uint32_t, double> RateTracker::snapshot_rates_by_flow(
    sim::Time window) {
  std::unordered_map<uint32_t, double> out;
  const double sec = window.to_sec();
  for (auto& [flow, b] : bytes_) {
    out[flow] = sec > 0 ? static_cast<double>(b) * 8.0 / sec : 0.0;
    b = 0;
  }
  return out;
}

}  // namespace xpass::stats
