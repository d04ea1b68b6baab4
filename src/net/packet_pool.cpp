#include "net/packet_pool.hpp"

namespace xpass::net {

PacketPool& PacketPool::local() {
  thread_local PacketPool pool;
  return pool;
}

void PacketPool::grow() {
  slabs_.push_back(std::make_unique<Node[]>(kSlabPackets));
  Node* slab = slabs_.back().get();
  for (size_t i = 0; i < kSlabPackets; ++i) {
    slab[i].next = free_;
    free_ = &slab[i];
  }
}

}  // namespace xpass::net
