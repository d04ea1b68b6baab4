// Event-core microbenchmarks: measures schedule/cancel/fire throughput of
// sim::EventQueue against the seed implementation (std::function callbacks,
// std::priority_queue, tombstone set; bench/seed_event_queue.hpp), compiled
// into this binary with identical flags, and emits the ratios as
// BENCH_core.json (schema documented in EXPERIMENTS.md). Later changes
// compare a fresh run against the committed file. Usage:
//
//   bench_core [core.json] [--ops=N]
//
// Defaults: ./BENCH_core.json, ops = 2^21. Each microbench runs 7
// interleaved (EventQueue, seed queue) pairs and records the median
// per-pair ratio. --ops shrinks the microbenches for CI smoke runs (the
// committed JSON must be regenerated with the default). The output file is
// opened before any benchmarking, so a bad path or flag fails at once.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <string>
#include <vector>

#include "bench/seed_event_queue.hpp"
#include "runner/args.hpp"
#include "sim/event_queue.hpp"

namespace {

using namespace xpass;
using bench::SeedEventQueue;
using sim::Time;

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

size_t g_ops = 1 << 21;          // primitive cycles per microbench (--ops)
constexpr size_t kBatch = 4096;  // pending events per drain batch

uint64_t lcg_next(uint64_t& s) {
  s = s * 6364136223846793005ULL + 1442695040888963407ULL;
  return s;
}

// One op = schedule an event and (eventually) fire it.
template <class Q>
double bench_schedule_fire() {
  Q q;
  uint64_t sink = 0;
  uint64_t rng = 42;
  const double t0 = now_sec();
  for (size_t done = 0; done < g_ops; done += kBatch) {
    for (size_t i = 0; i < kBatch; ++i) {
      q.schedule(q.now() + Time::ns(1 + (lcg_next(rng) >> 40) % 1000),
                 [&sink] { ++sink; });
    }
    q.run();
  }
  const double dt = now_sec() - t0;
  if (sink != g_ops) std::fprintf(stderr, "bench bug: %llu fires\n",
                                 static_cast<unsigned long long>(sink));
  return static_cast<double>(g_ops) / dt;
}

// One op = schedule an event, cancel it, and drain its queue entry. This is
// the exact pattern of connection teardown and RTO rescheduling.
template <class Q>
double bench_schedule_cancel() {
  Q q;
  using Id = decltype(q.schedule(Time::zero(), [] {}));
  std::vector<Id> ids;
  ids.reserve(kBatch);
  uint64_t rng = 43;
  const double t0 = now_sec();
  for (size_t done = 0; done < g_ops; done += kBatch) {
    for (size_t i = 0; i < kBatch; ++i) {
      ids.push_back(
          q.schedule(q.now() + Time::ns(1 + (lcg_next(rng) >> 40) % 1000),
                     [] {}));
    }
    for (const Id& id : ids) q.cancel(id);
    ids.clear();
    q.run();  // drain the cancelled entries
  }
  return static_cast<double>(g_ops) / (now_sec() - t0);
}

// Mixed churn including cancel-after-fire, the leak path: each cycle
// schedules two events, fires one, cancels the other, then cancels the
// already-fired id (a no-op that the seed queue turns into a permanent
// tombstone).
template <class Q>
double bench_churn() {
  Q q;
  uint64_t sink = 0;
  uint64_t rng = 44;
  const double t0 = now_sec();
  for (size_t cycle = 0; cycle < g_ops / 2; ++cycle) {
    auto fired = q.schedule(q.now() + Time::ns(1), [&sink] { ++sink; });
    auto live = q.schedule(
        q.now() + Time::ns(2 + (lcg_next(rng) >> 40) % 100), [&sink] { ++sink; });
    q.step();        // fires `fired`
    q.cancel(live);  // cancel-before-fire
    q.cancel(fired); // cancel-after-fire: must not retain state
    if ((cycle & 1023) == 1023) q.run();  // drain cancelled entries
  }
  q.run();
  return static_cast<double>(g_ops) / (now_sec() - t0);
}

// The CI gate reads each microbench's EventQueue/seed ratio, so it is
// measured as kPairs interleaved pairs: the two queues run back to back,
// alternating which goes first, and the gate takes the median of the
// per-pair ratios. A noisy stretch of a shared host then slows both sides
// of a pair, where timing each queue best-of-N in its own block let it
// land on one side only and swing the ratio.
constexpr size_t kPairs = 7;

struct Paired {
  double ops = 0;       // median EventQueue ops/sec
  double seed_ops = 0;  // median seed-queue ops/sec
  double median = 0;    // per-pair ratio: median, min and max
  double min = 0;
  double max = 0;
};

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

Paired paired(double (*fresh)(), double (*seed)()) {
  std::vector<double> ops, seed_ops, ratio;
  for (size_t i = 0; i < kPairs; ++i) {
    double a, b;
    if (i % 2 == 0) {
      a = fresh();
      b = seed();
    } else {
      b = seed();
      a = fresh();
    }
    ops.push_back(a);
    seed_ops.push_back(b);
    ratio.push_back(a / b);
  }
  const auto [lo, hi] = std::minmax_element(ratio.begin(), ratio.end());
  return {median_of(ops), median_of(seed_ops), median_of(ratio), *lo, *hi};
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* kUsage = "usage: bench_core [core.json] [--ops=N]\n";
  runner::Args args(argc, argv);
  g_ops = args.u64("ops", g_ops);
  const std::vector<std::string>& positional = args.positional();
  args.die_on_error(kUsage);
  if (positional.size() > 1) {
    std::fprintf(stderr, "unexpected argument: %s\n%s",
                 positional[1].c_str(), kUsage);
    return 2;
  }
  if (g_ops == 0) {
    std::fprintf(stderr, "--ops must be >= 1\n%s", kUsage);
    return 2;
  }
  const char* core_path =
      positional.empty() ? "BENCH_core.json" : positional[0].c_str();
  FILE* f = std::fopen(core_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", core_path);
    return 1;
  }

  std::printf("event-core microbenchmarks (%zu ops each, %zu interleaved "
              "pairs)...\n", g_ops, kPairs);
  const struct {
    const char* name;
    Paired r;
  } micro[] = {
      {"schedule_fire", paired(bench_schedule_fire<sim::EventQueue>,
                               bench_schedule_fire<SeedEventQueue>)},
      {"schedule_cancel", paired(bench_schedule_cancel<sim::EventQueue>,
                                 bench_schedule_cancel<SeedEventQueue>)},
      {"churn", paired(bench_churn<sim::EventQueue>,
                       bench_churn<SeedEventQueue>)},
  };
  for (const auto& m : micro) {
    std::printf("  %-15s: %.2fM/s vs seed %.2fM/s, ratio median %.2fx "
                "(min %.2fx, max %.2fx)\n",
                m.name, m.r.ops / 1e6, m.r.seed_ops / 1e6, m.r.median,
                m.r.min, m.r.max);
  }

  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"core\",\n");
  std::fprintf(f, "  \"schema_version\": 3,\n");
  std::fprintf(f, "  \"config\": {\"ops_per_microbench\": %zu, "
                  "\"batch\": %zu, \"pairs\": %zu},\n", g_ops, kBatch, kPairs);
  const size_t n_micro = std::size(micro);
  std::fprintf(f, "  \"event_queue\": {\n");
  for (size_t i = 0; i < n_micro; ++i) {
    std::fprintf(f, "    \"%s_ops_per_sec\": %.0f%s\n", micro[i].name,
                 micro[i].r.ops, i + 1 < n_micro ? "," : "");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"seed_baseline\": {\n");
  for (size_t i = 0; i < n_micro; ++i) {
    std::fprintf(f, "    \"%s_ops_per_sec\": %.0f%s\n", micro[i].name,
                 micro[i].r.seed_ops, i + 1 < n_micro ? "," : "");
  }
  std::fprintf(f, "  },\n");
  std::fprintf(f, "  \"speedup_vs_seed\": {\n");
  for (size_t i = 0; i < n_micro; ++i) {
    const Paired& r = micro[i].r;
    std::fprintf(f, "    \"%s\": {\"median\": %.3f, \"min\": %.3f, "
                    "\"max\": %.3f, \"pairs\": %zu}%s\n",
                 micro[i].name, r.median, r.min, r.max, kPairs,
                 i + 1 < n_micro ? "," : "");
  }
  std::fprintf(f, "  }\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", core_path);
  return 0;
}
