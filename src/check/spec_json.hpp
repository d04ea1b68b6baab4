// ScenarioSpec <-> JSON: the serialization layer behind fuzzer repros,
// campaign cache keys and benchmark specs.
//
// spec_to_json emits every field of a runner::ScenarioSpec (times as exact
// integer picoseconds, rates as shortest-round-trip doubles, optionals
// omitted when unset) in a fixed member order; spec_from_json parses it
// back. Both directions walk one field table (spec_json.cpp), so each
// member is named once. The pair is exact: spec -> JSON -> spec reproduces
// every field, and JSON -> spec -> JSON reproduces the document byte for
// byte — which is what lets a shrunken fuzzer repro reload as precisely the
// scenario that failed, years of PRs later. The round-trip property test
// fuzzes this over generated specs.
//
// Reading is strict. An absent member keeps its ScenarioSpec default; a
// member the table does not describe, a value of the wrong JSON type, an
// integer that is negative, fractional or out of its field's range (times
// must fit in int64 picoseconds), an unknown enum spelling or a repeated
// key is an error naming the member's path, e.g.
//   unknown member 'traffic.flow'
//   'xp.traffic_class': expected an integer in [0, 255]
// Stored specs may still carry the retired "shards" member: 0 and 1 are
// accepted, larger counts rejected.
#pragma once

#include <optional>
#include <string>

#include "check/json.hpp"
#include "runner/scenario.hpp"

namespace xpass::check {

inline constexpr std::string_view kSpecSchema = "xpass.scenario.v1";

// The JSON document (schema-tagged object) for a spec, and its text form.
Json spec_to_json_doc(const runner::ScenarioSpec& spec);
std::string spec_to_json(const runner::ScenarioSpec& spec);

// Parses a spec document (or the object spec_to_json_doc produced). Returns
// nullopt and fills `err` on malformed JSON, a schema tag other than
// kSpecSchema, or any member the reading rules above reject. A document
// without a schema tag is read as kSpecSchema.
std::optional<runner::ScenarioSpec> spec_from_json_doc(const Json& doc,
                                                       std::string* err);
std::optional<runner::ScenarioSpec> spec_from_json(const std::string& text,
                                                   std::string* err);

}  // namespace xpass::check
