// Minimal JSON document model for the check subsystem.
//
// Carries ScenarioSpec round-trips (spec_json) and fuzzer repro files
// (fuzzer), so it needs exactly three properties the standard library does
// not give us for free:
//   * exact 64-bit integers — spec seeds are full-width uint64 and must
//     survive spec -> JSON -> spec without drifting through a double;
//   * deterministic emission — objects keep insertion order and doubles use
//     shortest-round-trip formatting, so serializing a parsed document
//     reproduces it byte for byte (the repro/property tests pin this);
//   * no dependencies — the container has no JSON library and must not
//     grow one.
// Parse errors carry a byte offset; the grammar is plain RFC 8259 minus
// \uXXXX surrogate pairs (probe/scenario names are ASCII), and an object
// that repeats a key is an error rather than a silent last-one-wins.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace xpass::check {

class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() = default;  // null
  static Json boolean(bool b);
  // Numbers: u64 keeps full 64-bit precision through dump/parse; number()
  // is the generic double flavor (emitted shortest-round-trip).
  static Json u64(uint64_t v);
  static Json number(double v);
  static Json str(std::string s);
  static Json array();
  static Json object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  // A number written as an unsigned integer literal (or built by u64()):
  // as_u64() is then exact. Signs, fractions and exponents are not.
  bool is_u64() const { return type_ == Type::kNumber && num_is_u64_; }

  // Typed reads. Wrong-type access returns the neutral value (false / 0 /
  // empty); callers that care test type() or use find() + has-checks.
  bool as_bool(bool fallback = false) const;
  double as_double(double fallback = 0.0) const;
  uint64_t as_u64(uint64_t fallback = 0) const;
  const std::string& as_string() const;

  // Arrays.
  void push(Json v);
  const std::vector<Json>& items() const { return items_; }

  // Objects (insertion-ordered; linear find — spec objects are small).
  Json& set(const std::string& key, Json v);
  const Json* find(const std::string& key) const;
  const std::vector<std::pair<std::string, Json>>& members() const {
    return members_;
  }
  // Typed object lookups with fallback for absent/mistyped members.
  double get_double(const std::string& key, double fallback) const;
  uint64_t get_u64(const std::string& key, uint64_t fallback) const;
  std::string get_string(const std::string& key,
                         const std::string& fallback) const;

  // Emission: `indent` < 0 packs everything on one line; >= 0 pretty-prints
  // with that many leading spaces per level.
  std::string dump(int indent = -1) const;

  // Returns nullopt and fills `err` ("offset N: why") on malformed input.
  static std::optional<Json> parse(std::string_view text, std::string* err);

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  double num_ = 0.0;
  uint64_t u64_ = 0;
  bool num_is_u64_ = false;  // emitted as an exact unsigned integer
  std::string str_;
  std::vector<Json> items_;
  std::vector<std::pair<std::string, Json>> members_;

  void dump_to(std::string& out, int indent, int depth) const;
};

}  // namespace xpass::check
