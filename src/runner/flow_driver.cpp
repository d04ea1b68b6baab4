#include "runner/flow_driver.hpp"

#include <algorithm>

namespace xpass::runner {

transport::Connection& FlowDriver::add(const transport::FlowSpec& spec) {
  ++scheduled_;
  auto conn = transport_.create(spec);
  conn->set_rate_tracker(&rates_);
  conn->set_on_complete([this](transport::Connection& c) {
    fcts_.record(c.spec().size_bytes, c.fct());
  });
  conn->set_on_fail([this](transport::Connection&) { ++failed_; });
  transport::Connection* raw = conn.get();
  conns_.push_back(std::move(conn));
  sim_.at(spec.start_time, [raw] { raw->start(); });
  return *raw;
}

transport::Connection& FlowDriver::add_grouped(const transport::FlowSpec& spec,
                                               transport::Transport& t,
                                               size_t group) {
  while (groups_.size() <= group) {
    groups_.push_back(std::make_unique<GroupStats>());
  }
  GroupStats& gs = *groups_[group];
  ++gs.scheduled;
  ++scheduled_;
  auto conn = t.create(spec);
  conn->set_rate_tracker(&rates_);
  conn->set_on_complete([this, &gs](transport::Connection& c) {
    fcts_.record(c.spec().size_bytes, c.fct());
    gs.fcts.record(c.spec().size_bytes, c.fct());
  });
  conn->set_on_fail([this, &gs](transport::Connection&) {
    ++failed_;
    ++gs.failed;
  });
  // Ids arrive in increasing order, so the sorted insert is an append.
  const std::pair<uint32_t, size_t> entry(spec.id, group);
  flow_group_.insert(
      std::upper_bound(flow_group_.begin(), flow_group_.end(), entry), entry);
  transport::Connection* raw = conn.get();
  conns_.push_back(std::move(conn));
  sim_.at(spec.start_time, [raw] { raw->start(); });
  return *raw;
}

bool FlowDriver::run_to_completion(sim::Time deadline) {
  const sim::Time chunk = sim::Time::ms(1);
  while (sim_.now() < deadline) {
    if (completed() + failed() >= scheduled_) break;
    sim::Time next = sim_.now() + chunk;
    if (next > deadline) next = deadline;
    sim_.run_until(next);
    // A budget abort turns run_until into a no-op: now() stops advancing,
    // so without this break the settle loop would spin forever.
    if (sim_.aborted()) break;
  }
  return completed() >= scheduled_;
}

void FlowDriver::stop_all() {
  for (auto& c : conns_) c->stop();
}

}  // namespace xpass::runner
