// Slab pool for in-flight packets.
//
// Packets travel the hot path by value (queue slots, event captures), which
// is why Packet is packed to one cache line. The remaining copy that used to
// hurt was the wire-flight capture: every transmission moved a full Packet
// into its delivery callback, and a capture of [this + Packet] no longer
// fits the event queue's small-buffer optimization once that buffer is
// sized for pointers rather than payloads. PacketRef parks the packet in a
// recycled slab slot and captures 8 bytes instead.
//
// The pool is thread-local (PacketPool::local()): a simulation runs
// single-threaded (the sweep executor parallelizes across *scenarios*, one
// thread each), so acquire/release never cross threads and need no locks.
// Slabs are never returned to the allocator; steady state recycles the same
// slots through the intrusive freelist forever — zero mallocs per packet.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "net/packet.hpp"

namespace xpass::net {

class PacketPool {
 public:
  // The calling thread's pool (simulations are single-threaded; see above).
  static PacketPool& local();

  Packet* acquire(Packet&& p) {
    if (free_ == nullptr) grow();
    Node* n = free_;
    free_ = n->next;
    ++outstanding_;
    n->pkt = std::move(p);
    return &n->pkt;
  }

  void release(Packet* p) {
    // Packet is trivially destructible and the first member of Node, so the
    // slot is reinterpretable as a freelist node in place.
    Node* n = reinterpret_cast<Node*>(p);
    n->next = free_;
    free_ = n;
    --outstanding_;
  }

  // Introspection: live refs and slab footprint (tests, leak checks).
  size_t outstanding() const { return outstanding_; }
  size_t capacity() const { return slabs_.size() * kSlabPackets; }

 private:
  union Node {
    Packet pkt;
    Node* next;
    Node() : next(nullptr) {}
  };
  static_assert(offsetof(Node, pkt) == 0);

  static constexpr size_t kSlabPackets = 256;

  void grow();

  std::vector<std::unique_ptr<Node[]>> slabs_;
  Node* free_ = nullptr;
  size_t outstanding_ = 0;
};

// Move-only RAII handle to a pooled packet; 8 bytes, releases to the
// thread's pool on destruction.
class PacketRef {
 public:
  PacketRef() = default;
  explicit PacketRef(Packet&& p)
      : p_(PacketPool::local().acquire(std::move(p))) {}
  PacketRef(PacketRef&& o) noexcept : p_(std::exchange(o.p_, nullptr)) {}
  PacketRef& operator=(PacketRef&& o) noexcept {
    if (this != &o) {
      reset();
      p_ = std::exchange(o.p_, nullptr);
    }
    return *this;
  }
  PacketRef(const PacketRef&) = delete;
  PacketRef& operator=(const PacketRef&) = delete;
  ~PacketRef() { reset(); }

  void reset() {
    if (p_ != nullptr) PacketPool::local().release(std::exchange(p_, nullptr));
  }

  explicit operator bool() const { return p_ != nullptr; }
  Packet& operator*() { return *p_; }
  Packet* operator->() { return p_; }
  Packet* get() { return p_; }

 private:
  Packet* p_ = nullptr;
};

}  // namespace xpass::net
