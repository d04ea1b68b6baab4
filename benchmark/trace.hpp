// In-memory span recorder for the traced benchmark run.
//
// A span is one timed call into a layer: name, start, end, the span that
// was open on the same thread when it began (its parent), the run (spec
// index) it belongs to, and the allocations its thread made meanwhile.
// Storage is reserved up front and never grows, so recording a span does
// not allocate inside the interval another span is measuring; spans past
// the capacity are counted as dropped instead. write_chrome_trace() emits
// everything at exit in Chrome trace-event format, with each span's self
// time (its duration minus the part its children cover).
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace xpass::benchmark {

class Tracer {
 public:
  static constexpr uint32_t kNone = 0xffffffffu;

  explicit Tracer(size_t capacity);
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Opens a span on the calling thread; returns kNone when full.
  uint32_t begin(const char* name, uint32_t run);
  // Closes `id`, which must be the calling thread's innermost open span.
  void end(uint32_t id);

  // Per-name totals over closed spans.
  struct Total {
    double sec = 0;
    uint64_t allocs = 0;
    uint64_t count = 0;
  };
  std::map<std::string, Total> totals() const;
  uint64_t dropped() const;

  // Writes {"traceEvents": [...]} to `path`; throws on I/O failure.
  void write_chrome_trace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    uint32_t parent;
    uint32_t run;
    uint32_t tid;
    uint64_t allocs_at_start;
    uint64_t allocs;
  };

  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_; capacity fixed at construction
  uint64_t dropped_ = 0;     // guarded by mu_
  uint32_t next_tid_ = 0;    // guarded by mu_
  int64_t origin_ns_;
};

// Closes its span on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const char* name, uint32_t run)
      : t_(t), id_(t.begin(name, run)) {}
  ~ScopedSpan() { t_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& t_;
  uint32_t id_;
};

}  // namespace xpass::benchmark
