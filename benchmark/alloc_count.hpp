// Allocation counter of the traced benchmark binary: alloc_hook.cpp
// replaces the global operator new and counts calls per thread, so a span
// can attribute allocations to the layer that made them even when two
// campaign tasks run at once.
#pragma once

#include <cstdint>

namespace xpass::benchmark {

// operator new calls made by the calling thread since it started.
uint64_t thread_allocs();

}  // namespace xpass::benchmark
