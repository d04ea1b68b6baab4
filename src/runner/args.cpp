#include "runner/args.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace xpass::runner {

namespace {

// Strict integer parse: the whole token must be consumed and in range.
std::optional<uint64_t> parse_u64(const std::string& s) {
  if (s.empty() || s[0] == '-') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end == s.c_str() || *end != '\0') return std::nullopt;
  return static_cast<uint64_t>(v);
}

}  // namespace

std::optional<double> parse_f64(const std::string& s) {
  if (s.empty()) return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s.c_str(), &end);
  if (errno != 0 || end == s.c_str() || *end != '\0') return std::nullopt;
  // strtod accepts "nan"/"inf" spellings; no knob means those, so treat
  // them as malformed rather than letting them poison downstream math.
  if (!std::isfinite(v)) return std::nullopt;
  return v;
}

Args::Args(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--", 0) != 0 || arg == "--") {
      positional_.emplace_back(arg);
      positional_at_.push_back(i);
      continue;
    }
    Entry e;
    const size_t eq = arg.find('=');
    if (eq != std::string_view::npos) {
      e.name = std::string(arg.substr(2, eq - 2));
      e.value = std::string(arg.substr(eq + 1));
    } else {
      e.name = std::string(arg.substr(2));
      // A following non-flag token is the candidate `--name value` value;
      // it is only *consumed* if the flag is queried as a valued flag.
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        e.value = std::string(argv[i + 1]);
        e.value_is_next = true;
        e.value_at = ++i;
      }
    }
    entries_.push_back(std::move(e));
  }
}

Args::Entry* Args::find(std::string_view name) {
  Entry* first = nullptr;
  bool repeated = false;
  for (Entry& e : entries_) {
    if (e.name != name) continue;
    if (first == nullptr) {
      first = &e;
      continue;
    }
    // A repeat is an error of its own, reported once, not an unknown flag.
    repeated = repeated || !e.consumed;
    e.consumed = true;
    e.value_consumed = true;
  }
  if (repeated) fail(name, "given more than once");
  return first;
}

void Args::fail(std::string_view name, std::string_view why) {
  std::string msg = "--";
  msg += name;
  msg += ": ";
  msg += why;
  errors_.push_back(std::move(msg));
}

bool Args::flag(std::string_view name) {
  Entry* e = find(name);
  if (e == nullptr) return false;
  e->consumed = true;
  if (e->value && !e->value_is_next) {
    fail(name, "takes no value");
  } else if (e->value && e->value_is_next) {
    // `--full foo`: foo belongs to someone else (a positional).
    e->value_consumed = false;
  }
  return true;
}

std::optional<std::string> Args::str(std::string_view name) {
  Entry* e = find(name);
  if (e == nullptr) return std::nullopt;
  e->consumed = true;
  if (!e->value) {
    fail(name, "expects a value");
    return std::nullopt;
  }
  e->value_consumed = true;
  return e->value;
}

uint64_t Args::u64(std::string_view name, uint64_t fallback) {
  Entry* e = find(name);
  if (e == nullptr) return fallback;
  e->consumed = true;
  if (!e->value) {
    fail(name, "expects an integer");
    return fallback;
  }
  e->value_consumed = true;
  auto v = parse_u64(*e->value);
  if (!v) {
    fail(name, "malformed integer '" + *e->value + "'");
    return fallback;
  }
  return *v;
}

double Args::f64(std::string_view name, double fallback) {
  Entry* e = find(name);
  if (e == nullptr) return fallback;
  e->consumed = true;
  if (!e->value) {
    fail(name, "expects a number");
    return fallback;
  }
  e->value_consumed = true;
  auto v = parse_f64(*e->value);
  if (!v) {
    fail(name, "malformed number '" + *e->value + "'");
    return fallback;
  }
  return *v;
}

size_t Args::jobs() {
  const uint64_t v = u64("jobs", 0);
  if (v == 0 && find("jobs") != nullptr && ok()) {
    fail("jobs", "must be >= 1");
  }
  return static_cast<size_t>(v);
}

size_t Args::runs() {
  const uint64_t v = u64("runs", 1);
  if (v == 0) {
    fail("runs", "must be >= 1");
    return 1;
  }
  return static_cast<size_t>(v);
}

double Args::timeout_ms() {
  const double v = f64("timeout-ms", 0);
  if (v < 0) {
    fail("timeout-ms", "must be >= 0");
    return 0;
  }
  return v;
}

std::optional<std::string> Args::cache_dir() {
  auto v = str("cache-dir");
  if (v && v->empty()) {
    fail("cache-dir", "expects a directory path");
    return std::nullopt;
  }
  return v;
}

bool Args::resume() { return flag("resume"); }

// Queried boolean switches written as `--switch value` captured a trailing
// token speculatively; once all queries have run, give unconsumed ones back
// to the positional list at their original argv position.
void Args::finalize() {
  if (finalized_) return;
  finalized_ = true;
  for (Entry& e : entries_) {
    if (e.consumed && e.value_is_next && e.value && !e.value_consumed) {
      const auto at = std::upper_bound(positional_at_.begin(),
                                       positional_at_.end(), e.value_at);
      positional_.insert(positional_.begin() + (at - positional_at_.begin()),
                         *e.value);
      positional_at_.insert(at, e.value_at);
      e.value.reset();
    }
  }
}

const std::vector<std::string>& Args::positional() {
  finalize();
  return positional_;
}

std::string Args::error() {
  finalize();
  std::string out;
  for (const std::string& e : errors_) {
    out += e;
    out += '\n';
  }
  for (const Entry& e : entries_) {
    if (!e.consumed) {
      out += "unknown flag: --" + e.name + "\n";
    }
  }
  return out;
}

void Args::die_on_error(const char* usage) {
  const std::string err = error();
  if (err.empty()) return;
  std::fputs(err.c_str(), stderr);
  if (usage != nullptr) std::fputs(usage, stderr);
  std::exit(2);
}

}  // namespace xpass::runner
