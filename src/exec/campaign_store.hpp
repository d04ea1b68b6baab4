// CampaignStore: an on-disk, content-addressed cache of campaign results,
// built so that a campaign killed at ANY instant — SIGKILL included — can
// resume and produce output byte-identical to an uninterrupted run.
//
// Addressing. A result is keyed by hash(code version, canonical scenario
// bytes). The canonical bytes are the deterministic `xpass.scenario.v1`
// JSON emission of the ScenarioSpec (which embeds the seed), so two specs
// hash equal exactly when they would simulate identically. kCodeVersion is
// folded into the key and must be bumped whenever a change alters recorder
// output for the same spec — stale entries then simply stop matching; no
// invalidation pass, no format migration.
//
// Durability. Entries are written to a temp file in the same directory and
// published with std::filesystem::rename — atomic on POSIX, so a reader
// (or a resumed campaign) sees either the complete entry or nothing. Each
// entry carries its payload size and a FNV-1a checksum in the header;
// load() re-verifies both and treats any mismatch — truncation, partial
// write, bit rot, garbage — as a cache miss, never an error. A corrupt
// entry therefore costs one re-run, not a crash or (worse) a poisoned
// merge.
//
// Only deterministic results may be stored. Wall-clock-budget truncations
// are machine-dependent and must never enter the cache (the campaign layer
// enforces this); event/sim-time/live-event truncations are pure functions
// of the spec and cache fine.
//
// Layout under the store directory:
//   objects/<32-hex-key>.entry   one result per file (header + raw payload)
//   manifest.jsonl               append-only journal of task dispositions
//   quarantine/<...>.json        repro files for deterministic failures
// The manifest is a human-auditable journal; resume decisions are driven
// by the object files themselves (an entry either verifies or it doesn't),
// so a torn manifest tail — the normal SIGKILL artifact — is harmless.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace xpass::exec {

// Folded into every cache key. Bump when a code change alters the recorder
// payload produced for an unchanged spec (new scalar, changed semantics,
// schema rev) so prior entries miss instead of serving stale bytes.
inline constexpr std::string_view kCodeVersion = "xpass-v7";

class CampaignStore {
 public:
  // Opens (creating if needed) a store rooted at `dir`. Throws
  // std::runtime_error if the directory cannot be created.
  explicit CampaignStore(std::string dir);

  const std::string& dir() const { return dir_; }

  // Content address: 32 lowercase hex chars over (code_version, canonical
  // spec bytes). Pure function — usable for key stability tests.
  static std::string key(std::string_view canonical_bytes,
                         std::string_view code_version = kCodeVersion);

  // Publishes `payload` under `key` atomically (temp file + rename).
  // Returns false (leaving any prior entry intact) on I/O failure.
  bool store(const std::string& key, std::string_view payload);

  // Loads and verifies the entry for `key`. Missing, truncated, corrupt or
  // unparseable entries are misses (nullopt) — counted, never thrown.
  std::optional<std::string> load(const std::string& key);

  // Appends one line to the manifest journal (a trailing newline is added).
  // Best-effort: returns false on I/O failure.
  bool append_manifest(std::string_view line);

  // All complete manifest lines, in append order. A torn final line (no
  // trailing newline — the SIGKILL artifact) is dropped.
  std::vector<std::string> read_manifest() const;

  std::string object_path(const std::string& key) const;
  std::string manifest_path() const;
  std::string quarantine_dir() const;

  // Observation counters for this store handle (not persisted).
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t corrupt() const { return corrupt_; }

 private:
  std::string dir_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t corrupt_ = 0;
  uint64_t temp_seq_ = 0;
};

}  // namespace xpass::exec
