// Output-queued switch with symmetric-hash deterministic ECMP.
//
// Path symmetry (§3.1): credits of a flow and the data they trigger must
// traverse the same physical links in opposite directions. We hash on the
// direction-invariant tuple (min(endpoints), max(endpoints), flow id) and
// keep ECMP candidate lists sorted by neighbor id on every switch, which is
// the paper's "symmetric hashing + deterministic ECMP".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "net/node.hpp"
#include "net/port.hpp"

namespace xpass::net {

// Per-switch routing table in CSR form: the ECMP candidates for destination
// d are ports[offsets[d] .. offsets[d+1]), candidate order preserved
// (sorted by neighbor id — deterministic ECMP). Flat arrays instead of a
// vector-of-vectors: recompute_routes() builds one of these per switch, and
// on k=16 fat trees the nested form's per-(switch, destination) inner
// vectors dominated construction time with allocator churn.
struct RouteTable {
  std::vector<uint32_t> offsets;  // size = num destinations + 1
  std::vector<Port*> ports;       // flat candidate array
  std::vector<uint32_t> dist;     // hop distance per destination (0 = none)
};

class Switch : public Node {
 public:
  Switch(sim::Simulator& sim, NodeId id, std::string name)
      : Node(sim, id, Kind::kSwitch, std::move(name)) {}

  void receive(Packet&& p, Port& in) override;

  // Routing table: per destination node id, the ECMP candidate egress ports
  // (sorted deterministically by Topology::finalize) and the hop distance
  // to that destination. Installing a table drops the live-candidate caches.
  void set_routes(RouteTable table) {
    routes_ = std::move(table);
    const size_t n = routes_.offsets.empty() ? 0 : routes_.offsets.size() - 1;
    cache_.assign(n, LiveCache{});
  }
  std::span<Port* const> candidates(NodeId dst) const {
    if (dst + 1 >= routes_.offsets.size()) return {};
    return std::span<Port* const>(routes_.ports)
        .subspan(routes_.offsets[dst],
                 routes_.offsets[dst + 1] - routes_.offsets[dst]);
  }

  // ECMP selection for a packet of `flow` between hosts `src` and `dst`
  // (either direction). The flow hash is direction-invariant; the hop
  // distance to the destination is mixed in so successive fabric levels
  // make decorrelated choices (no hash polarization) while remaining
  // symmetric: the forward choice at distance d pairs with the reverse
  // choice made at the same distance on the other side.
  Port* route(NodeId src, NodeId dst, FlowId flow) const;

  // Direction-invariant flow hash (same value for both directions of a flow).
  static uint64_t symmetric_hash(NodeId a, NodeId b, FlowId flow);

  // Packet spraying (§7): round-robin packets over all ECMP candidates
  // instead of per-flow hashing. Spreads load perfectly but breaks path
  // symmetry and introduces reordering (ExpressPass's bounded queues keep
  // it small — this mode lets you measure exactly that).
  void set_packet_spraying(bool on) { spraying_ = on; }
  bool packet_spraying() const { return spraying_; }

  uint64_t unroutable_drops() const {
    return unroutable_data_ + unroutable_credits_;
  }
  // The credit share, so the fault-conservation ledger can account lost
  // credits separately from lost data.
  uint64_t unroutable_credits() const { return unroutable_credits_; }

 private:
  // Per-destination cache of the ECMP candidates whose links are live in
  // both directions, in candidate order. Valid while its epoch matches the
  // topology's liveness epoch; fail()/recover()/recompute_routes() bump
  // that counter, so the fault-free forwarding path costs one integer
  // compare instead of an is_up() scan per packet. kNeverBuilt forces the
  // first build even at topology epoch 0.
  struct LiveCache {
    static constexpr uint64_t kNeverBuilt = ~0ull;
    std::vector<Port*> live;
    uint64_t epoch = kNeverBuilt;
  };

  // The live candidates toward dst, refreshed when the epoch moved. Falls
  // back to a per-call scan for switches built outside a Topology (no
  // shared epoch to key the cache on).
  const std::vector<Port*>* live_candidates(NodeId dst) const;

  RouteTable routes_;
  mutable std::vector<LiveCache> cache_;
  mutable std::vector<Port*> scan_scratch_;  // no-epoch fallback storage
  bool spraying_ = false;
  uint64_t rr_counter_ = 0;
  uint64_t unroutable_data_ = 0;
  uint64_t unroutable_credits_ = 0;
};

}  // namespace xpass::net
