#include "trace.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "alloc_count.hpp"

namespace xpass::benchmark {

namespace {

int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// The calling thread's open spans, innermost last. Layer calls nest a few
// levels deep; deeper spans are recorded without a parent.
constexpr size_t kMaxDepth = 16;
thread_local uint32_t t_stack[kMaxDepth];
thread_local size_t t_depth = 0;
thread_local uint32_t t_tid = Tracer::kNone;

}  // namespace

Tracer::Tracer(size_t capacity) : origin_ns_(steady_ns()) {
  spans_.reserve(capacity);
}

uint32_t Tracer::begin(const char* name, uint32_t run) {
  const uint32_t parent =
      t_depth > 0 && t_depth <= kMaxDepth ? t_stack[t_depth - 1] : kNone;
  const uint64_t allocs = thread_allocs();
  const int64_t start = steady_ns() - origin_ns_;
  uint32_t id = kNone;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (t_tid == kNone) t_tid = next_tid_++;
    if (spans_.size() < spans_.capacity()) {
      id = static_cast<uint32_t>(spans_.size());
      spans_.push_back(Span{name, start, start, parent, run, t_tid, allocs, 0});
    } else {
      ++dropped_;
    }
  }
  if (t_depth < kMaxDepth) t_stack[t_depth] = id;
  ++t_depth;
  return id;
}

void Tracer::end(uint32_t id) {
  const uint64_t allocs = thread_allocs();
  const int64_t end = steady_ns() - origin_ns_;
  if (t_depth > 0) --t_depth;
  if (id == kNone) return;
  const std::lock_guard<std::mutex> lock(mu_);
  Span& s = spans_[id];
  s.end_ns = end;
  s.allocs = allocs - s.allocs_at_start;
}

std::map<std::string, Tracer::Total> Tracer::totals() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, Total> out;
  for (const Span& s : spans_) {
    Total& t = out[s.name];
    t.sec += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    t.allocs += s.allocs;
    ++t.count;
  }
  return out;
}

uint64_t Tracer::dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNone) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::string out = "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  char buf[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const int64_t dur = s.end_ns - s.start_ns;
    std::snprintf(
        buf, sizeof buf,
        "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %u, "
        "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %zu, \"parent\": %d, "
        "\"run\": %u, \"self_us\": %.3f, \"allocs\": %llu}}",
        i == 0 ? "" : ",", s.name, s.tid, static_cast<double>(s.start_ns) / 1e3,
        static_cast<double>(dur) / 1e3, i,
        s.parent == kNone ? -1 : static_cast<int>(s.parent), s.run,
        static_cast<double>(dur - child_ns[i]) / 1e3,
        static_cast<unsigned long long>(s.allocs));
    out += buf;
  }
  out += "\n]}\n";
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << out;
  f.close();
  if (!f) throw std::runtime_error("cannot write " + path);
}

}  // namespace xpass::benchmark
