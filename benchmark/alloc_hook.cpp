#include <cstdlib>
#include <new>

#include "alloc_count.hpp"

namespace {

// A plain thread-local: each thread counts only its own calls, so reading
// it needs no synchronisation.
thread_local uint64_t t_allocs = 0;

void* counted_alloc(size_t n) {
  ++t_allocs;
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(size_t n) { return counted_alloc(n); }
void* operator new[](size_t n) { return counted_alloc(n); }
void* operator new(size_t n, const std::nothrow_t&) noexcept {
  ++t_allocs;
  return std::malloc(n ? n : 1);
}
void* operator new[](size_t n, const std::nothrow_t&) noexcept {
  return operator new(n, std::nothrow);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace xpass::benchmark {

uint64_t thread_allocs() { return t_allocs; }

}  // namespace xpass::benchmark
