#include "exec/sweep_runner.hpp"

#include <cstdlib>

namespace xpass::exec {

uint64_t task_seed(uint64_t base_seed, uint64_t task_index) {
  // splitmix64 step: the increment is the golden-gamma times (index + 1) so
  // task 0 is already one step away from the raw base seed.
  uint64_t z = base_seed + 0x9e3779b97f4a7c15ULL * (task_index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

size_t default_jobs() {
  if (const char* env = std::getenv("XPASS_JOBS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 1) return static_cast<size_t>(v);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? hw : 1;
}

}  // namespace xpass::exec
