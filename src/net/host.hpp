// Host: a server with one NIC port, a per-flow packet demultiplexer, and a
// credit-processing delay model.
//
// The delay model reproduces the host-side variance the paper measures in §5
// (SoftNIC: median 0.38us, 99.99th percentile 6.2us) — the delay between a
// credit arriving and the corresponding data frame leaving the NIC. The
// variance (delay spread, "∆d_host") is what sizes the data buffers in the
// network-calculus bound.
#pragma once

#include <functional>
#include <unordered_map>

#include "net/node.hpp"
#include "net/port.hpp"

namespace xpass::net {

struct HostDelayModel {
  enum class Kind { kNone, kUniform, kLogNormal };
  Kind kind = Kind::kNone;
  sim::Time min;              // lower clamp / uniform low
  sim::Time max;              // upper clamp / uniform high
  double lognorm_median_us = 0.38;
  double lognorm_sigma = 0.9;

  static HostDelayModel none() { return {}; }
  // SoftNIC software implementation measured in the paper's testbed.
  static HostDelayModel testbed() {
    HostDelayModel m;
    m.kind = Kind::kLogNormal;
    m.min = sim::Time::ns(200);
    m.max = sim::Time::ns(6200);
    return m;
  }
  // A NIC-hardware implementation (Fig 5b's 1us delay-spread scenario).
  static HostDelayModel hardware() {
    HostDelayModel m;
    m.kind = Kind::kUniform;
    m.min = sim::Time::zero();
    m.max = sim::Time::us(1);
    return m;
  }

  sim::Time sample(sim::Rng& rng) const;
  // ∆d_host: the worst-case spread, used by the calculus module.
  sim::Time spread() const { return max - min; }
};

class Host : public Node {
 public:
  using Handler = std::function<void(Packet&&)>;

  Host(sim::Simulator& sim, NodeId id, std::string name)
      : Node(sim, id, Kind::kHost, std::move(name)) {}

  Port& nic() { return port(0); }
  void send(Packet&& p) { nic().enqueue(std::move(p)); }

  void register_flow(FlowId f, Handler h) { handlers_[f] = std::move(h); }
  void unregister_flow(FlowId f) { handlers_.erase(f); }

  void receive(Packet&& p, Port& in) override;

  void set_delay_model(HostDelayModel m) { delay_model_ = m; }
  sim::Time sample_credit_delay() { return delay_model_.sample(sim_.rng()); }

  // Credits that arrived for flows no longer registered (e.g. after the
  // sender finished): pure waste, counted for Fig 20.
  uint64_t stray_credits() const { return stray_credits_; }

  // Frames that arrived with a broken FCS (link bit errors): the NIC
  // discards them before the transport sees anything. Per-class counters
  // close the fault-conservation ledger.
  uint64_t corrupt_data_drops() const { return corrupt_data_drops_; }
  uint64_t corrupt_credit_drops() const { return corrupt_credit_drops_; }

 private:
  std::unordered_map<FlowId, Handler> handlers_;
  HostDelayModel delay_model_;
  uint64_t stray_credits_ = 0;
  uint64_t corrupt_data_drops_ = 0;
  uint64_t corrupt_credit_drops_ = 0;
};

}  // namespace xpass::net
