// Args: the one flag parser every bench / example / CLI shares.
//
// Replaces per-binary hand-rolled flag loops that each accepted a slightly
// different syntax and silently swallowed malformed values (`--jobs
// garbage` used to fall back to the default). Args accepts both
// `--name=value` and `--name value` for every flag, validates numeric
// values strictly, and collects errors so callers can print usage and exit
// (die_on_error) or assert in tests.
//
// Usage:
//   runner::Args args(argc, argv);
//   const bool full = args.flag("full");           // --full
//   const size_t jobs = args.jobs();               // --jobs N / --jobs=N
//   const uint64_t seed = args.u64("seed", 1);
//   args.die_on_error(usage_text);                 // malformed or unknown
//
// Every query marks its flag as known; die_on_error / error() also reports
// flags that were present but never queried ("unknown flag"). Positional
// (non --prefixed) arguments are collected in positional().
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace xpass::runner {

class Args {
 public:
  Args(int argc, char** argv);

  // Boolean switch: present (with no value) -> true.
  bool flag(std::string_view name);

  // Valued flags: `--name=value` or `--name value`. A present flag with a
  // malformed value records an error and returns the fallback.
  uint64_t u64(std::string_view name, uint64_t fallback);
  double f64(std::string_view name, double fallback);
  std::optional<std::string> str(std::string_view name);

  // `--jobs N` / `--jobs=N`: strictly positive worker count; 0 = "use the
  // SweepRunner default" and is what absent returns.
  size_t jobs();
  // `--runs M`: >= 1 seed replications.
  size_t runs();

  // Campaign flags (see exec::CampaignOptions).
  // `--timeout-ms T`: per-run wall-clock budget, >= 0 ms; absent returns 0
  // (no budget). Negative / non-numeric values are errors.
  double timeout_ms();
  // `--cache-dir DIR`: campaign result-store directory; nullopt if absent.
  std::optional<std::string> cache_dir();
  // `--resume`: serve cached results instead of re-running.
  bool resume();
  // `--retries N`: extra attempts for tasks that throw; absent returns 0.
  size_t retries();

  // True once any error (malformed value, or — after checked() — an
  // unqueried flag) has been recorded.
  bool ok() const { return errors_.empty(); }
  // All recorded errors, including unconsumed flags, one message per line.
  std::string error();
  // Prints errors + usage to stderr and exits(2) if anything is wrong.
  // `usage` may be null.
  void die_on_error(const char* usage);

  // Non-flag arguments, plus any `--switch value` trailing token that a
  // boolean flag() query released, in argv order. Call after all flag
  // queries.
  const std::vector<std::string>& positional();

 private:
  struct Entry {
    std::string name;           // without leading --
    std::optional<std::string> value;  // from =value or the next argv
    bool value_is_next = false;  // value came from the following argv slot
    int value_at = 0;            // that slot's argv index
    bool consumed = false;
    bool value_consumed = false;
  };

  Entry* find(std::string_view name);
  void fail(std::string_view name, std::string_view why);
  void finalize();

  std::vector<Entry> entries_;
  std::vector<std::string> positional_;
  std::vector<int> positional_at_;  // argv index of each positional_ entry
  std::vector<std::string> errors_;
  bool finalized_ = false;
};

}  // namespace xpass::runner
