// Node base class: anything with ports (hosts and switches).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "net/packet.hpp"
#include "sim/simulator.hpp"

namespace xpass::net {

class Port;
struct LinkConfig;

class Node {
 public:
  enum class Kind { kHost, kSwitch };

  Node(sim::Simulator& sim, NodeId id, Kind kind, std::string name)
      : sim_(sim), id_(id), kind_(kind), name_(std::move(name)) {}
  virtual ~Node();
  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // Called when a packet finishes arriving on `in`.
  virtual void receive(Packet&& p, Port& in) = 0;

  Port& add_port(const LinkConfig& cfg);
  Port& port(size_t i) { return *ports_[i]; }
  const Port& port(size_t i) const { return *ports_[i]; }
  size_t num_ports() const { return ports_.size(); }

  sim::Simulator& simulator() { return sim_; }
  NodeId id() const { return id_; }
  Kind kind() const { return kind_; }
  const std::string& name() const { return name_; }

  // Topology-wide link-liveness epoch, shared by every node of a Topology
  // (null for nodes built standalone). Port::fail()/recover() bump it;
  // Switch::route() caches per-destination live-candidate tables keyed on
  // it, so fault-free runs never rescan liveness per packet.
  void set_liveness_epoch(uint64_t* epoch) { liveness_epoch_ = epoch; }
  const uint64_t* liveness_epoch() const { return liveness_epoch_; }
  void bump_liveness_epoch() {
    if (liveness_epoch_ != nullptr) ++*liveness_epoch_;
  }

 protected:
  sim::Simulator& sim_;

 private:
  NodeId id_;
  Kind kind_;
  std::string name_;
  std::vector<std::unique_ptr<Port>> ports_;
  uint64_t* liveness_epoch_ = nullptr;
};

}  // namespace xpass::net
