// Recorder: the scenario-wide telemetry sink.
//
// A Recorder holds named *scalar* probes and named *time series*. Layers
// (net::Topology, runner::FlowDriver, core::ExpressPass) register probes via
// their register_telemetry() hooks instead of every bench polling counters
// by hand; the ScenarioEngine drives sampling and finally emits everything
// as schema-tagged JSON (the same flow the BENCH_*.json artifacts use).
//
// Two probe styles:
//   * push — set(name, v) / sample(name, t, v) record a value immediately;
//   * pull — gauge(name, fn) / series_gauge(name, fn) register a callback
//     that collect() (scalars) or sample_all(t) (series) evaluates.
//
// Probe names are dotted paths ("net.data_drops", "flow.3.goodput_bps").
// Emission order is the lexicographic name order, so JSON output is stable
// across runs and across registration order.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace xpass::stats {

class Recorder {
 public:
  static constexpr std::string_view kSchema = "xpass.recorder.v1";

  struct Series {
    std::vector<double> t_sec;
    std::vector<double> v;
  };

  Recorder() = default;
  Recorder(Recorder&&) = default;
  Recorder& operator=(Recorder&&) = default;
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  // --- scalars -----------------------------------------------------------
  // NaN/inf are not measurements (and not JSON numbers): a non-finite push
  // is rejected — the probe keeps its previous value (or stays absent) and
  // rejected() counts the refusal so harnesses can flag the buggy probe.
  void set(const std::string& name, double v) {
    if (!std::isfinite(v)) {
      ++rejected_;
      return;
    }
    scalars_[name] = v;
  }
  // Registers a pull probe; evaluated (and re-evaluated) by collect().
  void gauge(const std::string& name, std::function<double()> fn) {
    gauges_[name] = std::move(fn);
  }
  bool has(const std::string& name) const {
    return scalars_.count(name) != 0;
  }
  // Value of a collected scalar; 0.0 when the probe does not exist.
  double scalar(const std::string& name) const {
    auto it = scalars_.find(name);
    return it == scalars_.end() ? 0.0 : it->second;
  }
  const std::map<std::string, double>& scalars() const { return scalars_; }

  // --- time series -------------------------------------------------------
  // Rejects non-finite values/timestamps like set(); the series keeps its
  // t/v vectors aligned by dropping the whole point.
  void sample(const std::string& name, double t_sec, double v) {
    if (!std::isfinite(v) || !std::isfinite(t_sec)) {
      ++rejected_;
      return;
    }
    Series& s = series_[name];
    s.t_sec.push_back(t_sec);
    s.v.push_back(v);
  }
  // Registers a pull series probe; sample_all(t) appends one point each.
  void series_gauge(const std::string& name, std::function<double()> fn) {
    series_gauges_.emplace_back(name, std::move(fn));
  }
  void sample_all(double t_sec) {
    for (const auto& [name, fn] : series_gauges_) {
      sample(name, t_sec, fn());
    }
  }
  const std::map<std::string, Series>& series() const { return series_; }

  // Evaluates every gauge into its scalar slot. Call after the run (and as
  // often as you like — gauges are re-evaluated in place). Non-finite gauge
  // reads are rejected like any other push.
  void collect() {
    for (const auto& [name, fn] : gauges_) set(name, fn());
  }

  // Count of non-finite pushes refused (scalars, samples, gauge reads).
  uint64_t rejected() const { return rejected_; }

  // --- truncation ---------------------------------------------------------
  // Marks this run as truncated by a RunBudget. The emitted JSON then
  // carries "aborted": true plus the machine-readable reason, so consumers
  // (check_recorder_json.py, campaign merges) can tell a clean run from a
  // budget-clipped one — every recorded value is still valid, it just
  // covers a shorter window than the spec asked for.
  void set_abort(std::string reason) { abort_reason_ = std::move(reason); }
  bool aborted() const { return !abort_reason_.empty(); }
  const std::string& abort_reason() const { return abort_reason_; }

  // Drops the registered callbacks (which capture raw pointers into the
  // scenario's network) but keeps every collected value, so a Recorder can
  // safely outlive the Simulator/Topology it observed.
  void detach() {
    collect();
    gauges_.clear();
    series_gauges_.clear();
  }

  // --- emission ----------------------------------------------------------
  // Schema-tagged JSON document (see tools/check_recorder_json.py):
  //   {"schema": "xpass.recorder.v1", "scenario": <name>,
  //    "scalars": {...}, "series": {<name>: {"t_sec": [...], "v": [...]}}}
  // Budget-truncated runs add "aborted": true and "abort_reason": <string>
  // between "scenario" and "scalars"; healthy runs omit both keys.
  std::string to_json(const std::string& scenario_name) const;

 private:
  uint64_t rejected_ = 0;
  std::string abort_reason_;  // non-empty = run truncated by a budget
  std::map<std::string, double> scalars_;
  std::map<std::string, std::function<double()>> gauges_;
  std::map<std::string, Series> series_;
  std::vector<std::pair<std::string, std::function<double()>>> series_gauges_;
};

}  // namespace xpass::stats
