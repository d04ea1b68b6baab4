// Host-speed probe: a fixed amount of event-queue work, timed.
//
//   xpass_host_probe
//
// benchmark/run.py times this probe in a fresh process before every timed
// rep and scales the rep's host seconds by how fast the probe ran. On a
// shared host, neighbours slow every program down together, so the ratio
// of a rep to the probe moves far less than either time alone. The probe
// is built from this file only and never from ../src: a change to the
// simulator cannot change the yardstick it is measured with.
//
// The work resembles a discrete-event simulator's inner loop: pop the
// earliest of 2048 pending events, touch a 256 KB state table at a place
// that depends on the event, schedule the event again. Prints one JSON
// line: {"probe_s": seconds, "checksum": n}.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

namespace {

constexpr size_t kCells = size_t{1} << 15;  // 256 KB of uint64_t
constexpr uint32_t kPending = 2048;
constexpr int kSteps = 2'500'000;

}  // namespace

int main() {
  const auto t0 = std::chrono::steady_clock::now();
  uint64_t rng = 88172645463325252ull;
  const auto next = [&rng] {  // xorshift64
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  std::vector<uint64_t> cells(kCells);
  for (uint64_t& c : cells) c = next();
  using Event = std::pair<uint64_t, uint32_t>;  // (time, id)
  std::priority_queue<Event, std::vector<Event>, std::greater<>> pending;
  for (uint32_t id = 0; id < kPending; ++id) pending.push({next() & 0xffff, id});

  uint64_t acc = 0;
  for (int step = 0; step < kSteps; ++step) {
    const Event e = pending.top();
    pending.pop();
    uint64_t& cell = cells[(e.second * 16 + (acc & 15)) & (kCells - 1)];
    cell += e.first ^ acc;
    acc += cell >> 3;
    if (cell & 1) acc ^= next();
    pending.push({e.first + 1 + (next() & 1023), e.second});
  }
  const double sec = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - t0)
                         .count();
  // The checksum keeps the compiler from dropping the loop.
  std::printf("{\"probe_s\": %.9f, \"checksum\": %llu}\n", sec,
              static_cast<unsigned long long>(acc & 0xffff));
  return 0;
}
