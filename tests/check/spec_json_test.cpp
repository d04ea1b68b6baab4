#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "check/generator.hpp"
#include "check/json.hpp"
#include "check/spec_json.hpp"
#include "sim/random.hpp"

namespace {

using xpass::check::GenOptions;
using xpass::check::generate_spec;
using xpass::check::Json;
using xpass::check::spec_from_json;
using xpass::check::spec_from_json_doc;
using xpass::check::spec_to_json;
using xpass::check::spec_to_json_doc;
using xpass::runner::ScenarioSpec;
using xpass::sim::Time;

// --- Json document model --------------------------------------------------

TEST(Json, U64KeepsFullPrecision) {
  // Seeds are full-width uint64; a double would corrupt anything past 2^53.
  const uint64_t v = 18446744073709551615ull;  // 2^64 - 1
  Json doc = Json::object();
  doc.set("seed", Json::u64(v));
  std::string err;
  auto parsed = Json::parse(doc.dump(), &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->get_u64("seed", 0), v);
}

TEST(Json, DumpParseDumpIsByteStable) {
  Json doc = Json::object();
  doc.set("name", Json::str("fuzz/3/multibottleneck"));
  doc.set("rate", Json::number(0.1));
  doc.set("big", Json::u64(4363679437952121440ull));
  Json arr = Json::array();
  arr.push(Json::boolean(true));
  arr.push(Json());
  arr.push(Json::number(-2.5e-4));
  doc.set("list", std::move(arr));
  for (int indent : {-1, 0, 2}) {
    const std::string a = doc.dump(indent);
    std::string err;
    auto parsed = Json::parse(a, &err);
    ASSERT_TRUE(parsed.has_value()) << err;
    EXPECT_EQ(parsed->dump(indent), a) << "indent " << indent;
  }
}

TEST(Json, ObjectsKeepInsertionOrder) {
  Json doc = Json::object();
  doc.set("zulu", Json::u64(1));
  doc.set("alpha", Json::u64(2));
  doc.set("mike", Json::u64(3));
  EXPECT_EQ(doc.dump(), R"({"zulu": 1, "alpha": 2, "mike": 3})");
}

TEST(Json, StringEscapes) {
  Json doc = Json::object();
  doc.set("s", Json::str("a\"b\\c\nd\te"));
  const std::string text = doc.dump();
  std::string err;
  auto parsed = Json::parse(text, &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(parsed->get_string("s", ""), "a\"b\\c\nd\te");
}

TEST(Json, ParseErrorsCarryOffset) {
  for (const char* bad : {"{", "[1,]", "{\"a\":}", "tru", "\"unterminated",
                          "{\"a\":1} trailing", "- 1"}) {
    std::string err;
    auto parsed = Json::parse(bad, &err);
    EXPECT_FALSE(parsed.has_value()) << "accepted: " << bad;
    EXPECT_NE(err.find("offset"), std::string::npos) << bad << ": " << err;
  }
}

TEST(Json, DuplicateKeysAreRejected) {
  // Last-one-wins would let a repeated member silently override the first.
  std::string err;
  EXPECT_FALSE(Json::parse(R"({"a": 1, "b": {"c": 2, "c": 3}})", &err));
  EXPECT_NE(err.find("offset 23"), std::string::npos) << err;
  EXPECT_NE(err.find("duplicate key 'c'"), std::string::npos) << err;
}

TEST(Json, WrongTypeAccessIsNeutral) {
  Json doc = Json::object();
  doc.set("s", Json::str("text"));
  EXPECT_EQ(doc.get_u64("s", 7), 7u);
  EXPECT_EQ(doc.get_double("s", 1.5), 1.5);
  EXPECT_EQ(doc.get_string("absent", "fb"), "fb");
}

// --- ScenarioSpec round trip ----------------------------------------------

// Field-level equality through the JSON representation: two specs are equal
// iff their canonical documents match (spec_to_json emits every field).
void expect_same_spec(const ScenarioSpec& a, const ScenarioSpec& b) {
  EXPECT_EQ(spec_to_json(a), spec_to_json(b));
}

TEST(SpecJson, RoundTripsGeneratedSpecs) {
  // The property the repro files live on: spec -> JSON -> spec is exact,
  // and JSON -> spec -> JSON is byte-identical — over the whole generator
  // range (every topology, traffic kind, fault plan, optional field).
  xpass::sim::Rng rng(20260807);
  for (int i = 0; i < 200; ++i) {
    const ScenarioSpec spec = generate_spec(rng, static_cast<uint64_t>(i));
    const std::string text = spec_to_json(spec);
    std::string err;
    auto back = spec_from_json(text, &err);
    ASSERT_TRUE(back.has_value()) << err << "\n" << text;
    expect_same_spec(spec, *back);
    EXPECT_EQ(spec_to_json(*back), text);
    // Spot-check a few load-bearing fields outside the JSON equivalence.
    EXPECT_EQ(back->seed, spec.seed);
    EXPECT_EQ(back->protocol, spec.protocol);
    EXPECT_EQ(back->traffic.flows, spec.traffic.flows);
    EXPECT_EQ(back->base_rtt, spec.base_rtt);
    EXPECT_EQ(back->topology.credit_queue_pkts, spec.topology.credit_queue_pkts);
  }
}

TEST(SpecJson, RoundTripsExpressPassOverrides) {
  ScenarioSpec spec;
  xpass::core::ExpressPassConfig xp;
  xp.jitter = 0.0;
  xp.naive = true;
  xp.w_init = 0.25;
  xp.randomize_credit_size = false;
  spec.xp = xp;
  spec.topology.host_credit_shaper_noise = 0.0;
  spec.topology.credit_queue_pkts = 13;
  std::string err;
  auto back = spec_from_json(spec_to_json(spec), &err);
  ASSERT_TRUE(back.has_value()) << err;
  ASSERT_TRUE(back->xp.has_value());
  EXPECT_EQ(back->xp->jitter, 0.0);
  EXPECT_TRUE(back->xp->naive);
  EXPECT_EQ(back->xp->w_init, 0.25);
  EXPECT_FALSE(back->xp->randomize_credit_size);
  ASSERT_TRUE(back->topology.host_credit_shaper_noise.has_value());
  EXPECT_EQ(*back->topology.host_credit_shaper_noise, 0.0);
  EXPECT_EQ(back->topology.credit_queue_pkts, std::optional<size_t>(13));
}

TEST(SpecJson, AbsentMembersKeepDefaults) {
  std::string err;
  auto spec = spec_from_json(R"({"schema":"xpass.scenario.v1"})", &err);
  ASSERT_TRUE(spec.has_value()) << err;
  const ScenarioSpec defaults;
  expect_same_spec(*spec, defaults);
}

TEST(SpecJson, RejectsWrongSchemaAndBadEnums) {
  std::string err;
  EXPECT_FALSE(spec_from_json(R"({"schema":"xpass.scenario.v2"})", &err)
                   .has_value());
  EXPECT_FALSE(err.empty());
  err.clear();
  EXPECT_FALSE(
      spec_from_json(
          R"({"schema":"xpass.scenario.v1","protocol":"warpdrive"})", &err)
          .has_value());
  EXPECT_NE(err.find("warpdrive"), std::string::npos);
  err.clear();
  EXPECT_FALSE(
      spec_from_json(
          R"({"schema":"xpass.scenario.v1","topology":{"kind":"moebius"}})",
          &err)
          .has_value());
  EXPECT_NE(err.find("moebius"), std::string::npos);
  err.clear();
  EXPECT_FALSE(spec_from_json("not json at all", &err).has_value());
  EXPECT_FALSE(err.empty());
}

TEST(SpecJson, RoundTripsFlowGroupsAndRealtimeFields) {
  // The coexistence additions: mixed-protocol flow groups, per-link jitter,
  // and the on/off traffic shape. Every field must survive exactly — repro
  // files for mixed-fabric fuzz findings depend on it.
  ScenarioSpec spec;
  spec.protocol = xpass::runner::Protocol::kExpressPass;
  spec.topology.link_jitter = Time::us(2);

  xpass::runner::FlowGroupSpec xp;
  xp.protocol = xpass::runner::Protocol::kExpressPass;
  xp.traffic.kind = xpass::runner::TrafficKind::kPairwise;
  xp.traffic.flows = 3;
  xp.traffic.flow_id_salt = 7;
  spec.flow_groups.push_back(xp);

  xpass::runner::FlowGroupSpec ct;
  ct.protocol = xpass::runner::Protocol::kCubic;
  ct.traffic.kind = xpass::runner::TrafficKind::kOnOff;
  ct.traffic.flows = 5;
  ct.traffic.on_period_sec = 3.5e-3;
  ct.traffic.on_duty = 0.35;
  ct.share = 2.5;
  spec.flow_groups.push_back(ct);

  const std::string text = spec_to_json(spec);
  std::string err;
  auto back = spec_from_json(text, &err);
  ASSERT_TRUE(back.has_value()) << err << "\n" << text;
  expect_same_spec(spec, *back);
  EXPECT_EQ(spec_to_json(*back), text);
  ASSERT_EQ(back->flow_groups.size(), 2u);
  EXPECT_EQ(back->flow_groups[0].protocol,
            xpass::runner::Protocol::kExpressPass);
  EXPECT_EQ(back->flow_groups[0].traffic.flows, 3u);
  EXPECT_EQ(back->flow_groups[0].traffic.flow_id_salt, 7u);
  EXPECT_EQ(back->flow_groups[1].protocol, xpass::runner::Protocol::kCubic);
  EXPECT_EQ(back->flow_groups[1].traffic.kind,
            xpass::runner::TrafficKind::kOnOff);
  EXPECT_EQ(back->flow_groups[1].traffic.on_period_sec, 3.5e-3);
  EXPECT_EQ(back->flow_groups[1].traffic.on_duty, 0.35);
  EXPECT_EQ(back->flow_groups[1].share, 2.5);
  EXPECT_EQ(back->topology.link_jitter, Time::us(2));
}

TEST(SpecJson, LegacySpecsOmitCoexistenceKeys) {
  // Omission-when-default is what keeps every pre-coexistence campaign
  // cache key and committed repro byte-stable: a single-group, jitter-free
  // spec must serialize with none of the new keys present.
  ScenarioSpec spec;
  spec.traffic.kind = xpass::runner::TrafficKind::kPairwise;
  spec.traffic.flows = 4;
  const std::string text = spec_to_json(spec);
  for (const char* key :
       {"flow_groups", "link_jitter_ps", "on_period_sec", "on_duty"}) {
    EXPECT_EQ(text.find(key), std::string::npos)
        << key << " leaked into a legacy spec:\n" << text;
  }
}

TEST(SpecJson, RoundTripsForcedMixedGeneratedSpecs) {
  // The probabilistic sweep above only sometimes samples the mixed path;
  // force it so every run covers group serialization end to end.
  xpass::sim::Rng rng(20260809);
  GenOptions opts;
  opts.mixed = true;
  for (int i = 0; i < 50; ++i) {
    const ScenarioSpec spec =
        generate_spec(rng, static_cast<uint64_t>(i), opts);
    ASSERT_GE(spec.flow_groups.size(), 2u) << "generator ignored opts.mixed";
    const std::string text = spec_to_json(spec);
    std::string err;
    auto back = spec_from_json(text, &err);
    ASSERT_TRUE(back.has_value()) << err << "\n" << text;
    expect_same_spec(spec, *back);
    EXPECT_EQ(spec_to_json(*back), text);
    ASSERT_EQ(back->flow_groups.size(), spec.flow_groups.size());
    for (size_t g = 0; g < spec.flow_groups.size(); ++g) {
      EXPECT_EQ(back->flow_groups[g].protocol, spec.flow_groups[g].protocol);
      EXPECT_EQ(back->flow_groups[g].traffic.flows,
                spec.flow_groups[g].traffic.flows);
    }
  }
}

TEST(SpecJson, RejectsUnknownFlowGroupProtocol) {
  std::string err;
  EXPECT_FALSE(
      spec_from_json(R"({"schema":"xpass.scenario.v1",)"
                     R"("flow_groups":[{"protocol":"smoke-signals"}]})",
                     &err)
          .has_value());
  EXPECT_NE(err.find("smoke-signals"), std::string::npos) << err;
}

TEST(SpecJson, AcceptsSerialShardCounts) {
  // Stored specs from before the sharded engine's removal may carry
  // "shards": 0 or 1, both of which meant the serial engine.
  const ScenarioSpec defaults;
  for (const char* n : {"0", "1"}) {
    std::string err;
    auto spec = spec_from_json(
        std::string(R"({"schema":"xpass.scenario.v1","shards":)") + n + "}",
        &err);
    ASSERT_TRUE(spec.has_value()) << "shards " << n << ": " << err;
    expect_same_spec(*spec, defaults);
    EXPECT_EQ(spec_to_json(*spec).find("shards"), std::string::npos);
  }
}

TEST(SpecJson, RejectsShardedSpecs) {
  std::string err;
  EXPECT_FALSE(
      spec_from_json(R"({"schema":"xpass.scenario.v1","shards":4})", &err)
          .has_value());
  EXPECT_NE(err.find("shards"), std::string::npos) << err;
  EXPECT_NE(err.find("sharded engine was removed"), std::string::npos) << err;
}

TEST(SpecJson, RejectsWhatTheTableDoesNotDescribe) {
  // Each document names a member wrongly, gives it the wrong type or an
  // out-of-range value, or repeats it; none may load with defaults or a
  // wrapped value in its place. The error names the member's path.
  const struct {
    const char* members;  // inside {"schema":"xpass.scenario.v1", ...}
    const char* error;
  } cases[] = {
      {R"("traffic":{"flow":64})", "unknown member 'traffic.flow'"},
      {R"("stop":{"horizon_ms":5})", "unknown member 'stop.horizon_ms'"},
      {R"("topology":{"clos":{"pod":8}})",
       "unknown member 'topology.clos.pod'"},
      {R"("xp":{"alpha":0.0625})", "unknown member 'xp.alpha'"},
      {R"("seeed":7)", "unknown member 'seeed'"},
      {R"("flow_groups":[{"protocol":"cubic"},{"shares":2}])",
       "unknown member 'flow_groups[1].shares'"},
      {R"("traffic":{"flows":"64"})", "'traffic.flows': expected an integer"},
      {R"("check_invariants":"yes")", "'check_invariants': expected true"},
      {R"("topology":"clos")", "'topology': expected an object"},
      {R"("flow_groups":{"protocol":"cubic"})",
       "'flow_groups': expected an array"},
      {R"("traffic":{"flows":-3})", "'traffic.flows': expected an integer"},
      {R"("traffic":{"flows":2.5})", "'traffic.flows': expected an integer"},
      {R"("traffic":{"flows":1e30})", "'traffic.flows': expected an integer"},
      {R"("traffic":{"flow_id_salt":4294967296})",
       "'traffic.flow_id_salt': expected an integer in [0, 4294967295]"},
      {R"("xp":{"traffic_class":300})",
       "'xp.traffic_class': expected an integer in [0, 255]"},
      {R"("stop":{"horizon_ps":18446744073709551615})",
       "'stop.horizon_ps': expected an integer in [0, 9223372036854775807]"},
      {R"("traffic":{"flows":8,"flows":64})", "duplicate key 'flows'"},
  };
  for (const auto& c : cases) {
    const std::string doc =
        std::string(R"({"schema":"xpass.scenario.v1",)") + c.members + "}";
    std::string err;
    EXPECT_FALSE(spec_from_json(doc, &err).has_value()) << "accepted: " << doc;
    EXPECT_NE(err.find(c.error), std::string::npos)
        << doc << "\n  error: " << err << "\n  wanted: " << c.error;
  }
}

TEST(SpecJson, RejectsUnknownMembersPastTheFirst64) {
  // Members are marked as read in a 64-bit mask. An object with more
  // members than that must still fail, even when its known members come
  // last, and the error must name a member that really is unknown.
  std::string traffic;
  for (int i = 0; i < 70; ++i) traffic += "\"x" + std::to_string(i) + "\":1,";
  std::string err;
  EXPECT_FALSE(spec_from_json(R"({"schema":"xpass.scenario.v1","traffic":{)" +
                                  traffic + R"("flows":3}})",
                              &err)
                   .has_value());
  EXPECT_NE(err.find("unknown member 'traffic.x0'"), std::string::npos) << err;
}

// Strictness must never reject a document the repo depends on: every
// committed benchmark spec and fuzzer repro loads, and re-emits its spec
// byte for byte.
std::vector<std::filesystem::path> json_files(const char* dir) {
  std::vector<std::filesystem::path> out;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (e.path().extension() == ".json") out.push_back(e.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(SpecJson, CommittedSpecsReEmitByteForByte) {
  const auto files = json_files(XPASS_BENCHMARK_SPEC_DIR);
  EXPECT_GE(files.size(), 15u);
  for (const auto& path : files) {
    const std::string text = read_file(path);
    std::string err;
    auto spec = spec_from_json(text, &err);
    ASSERT_TRUE(spec.has_value()) << path << ": " << err;
    EXPECT_EQ(spec_to_json(*spec), text) << path;
  }
}

TEST(SpecJson, CommittedReprosReEmitTheirSpec) {
  const auto files = json_files(XPASS_REPRO_DIR);
  EXPECT_GE(files.size(), 3u);
  for (const auto& path : files) {
    std::string err;
    auto doc = Json::parse(read_file(path), &err);
    ASSERT_TRUE(doc.has_value()) << path << ": " << err;
    const Json* embedded = doc->find("spec");
    ASSERT_NE(embedded, nullptr) << path;
    auto spec = spec_from_json_doc(*embedded, &err);
    ASSERT_TRUE(spec.has_value()) << path << ": " << err;
    EXPECT_EQ(spec_to_json_doc(*spec).dump(2), embedded->dump(2)) << path;
  }
}

TEST(SpecJson, TimesSurviveAsExactPicoseconds) {
  ScenarioSpec spec;
  spec.base_rtt = Time::ps(123456789);
  spec.stop = xpass::runner::StopSpec::measure_window(Time::ps(999999999999),
                                                      Time::ps(1));
  std::string err;
  auto back = spec_from_json(spec_to_json(spec), &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->base_rtt, spec.base_rtt);
  EXPECT_EQ(back->stop.warmup, spec.stop.warmup);
  EXPECT_EQ(back->stop.window, spec.stop.window);
}

}  // namespace
