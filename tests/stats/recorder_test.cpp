#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "stats/recorder.hpp"

namespace {

using xpass::stats::Recorder;

TEST(Recorder, ScalarsPushAndPull) {
  Recorder r;
  r.set("a.pushed", 1.5);
  int calls = 0;
  r.gauge("b.gauge", [&] {
    ++calls;
    return 2.0 * calls;
  });
  EXPECT_FALSE(r.has("b.gauge"));  // not evaluated yet
  r.collect();
  EXPECT_DOUBLE_EQ(r.scalar("b.gauge"), 2.0);
  r.collect();  // gauges re-evaluate in place
  EXPECT_DOUBLE_EQ(r.scalar("b.gauge"), 4.0);
  EXPECT_DOUBLE_EQ(r.scalar("a.pushed"), 1.5);
  EXPECT_DOUBLE_EQ(r.scalar("missing"), 0.0);
}

TEST(Recorder, SeriesSampling) {
  Recorder r;
  double v = 10.0;
  r.series_gauge("q.bytes", [&] { return v; });
  r.sample_all(0.001);
  v = 20.0;
  r.sample_all(0.002);
  r.sample("manual", 0.5, 7.0);
  const auto& s = r.series().at("q.bytes");
  ASSERT_EQ(s.t_sec.size(), 2u);
  EXPECT_DOUBLE_EQ(s.t_sec[1], 0.002);
  EXPECT_DOUBLE_EQ(s.v[1], 20.0);
  EXPECT_EQ(r.series().at("manual").v.size(), 1u);
}

TEST(Recorder, DetachKeepsValuesDropsCallbacks) {
  Recorder r;
  int live = 0;
  r.gauge("g", [&] {
    ++live;
    return 42.0;
  });
  r.series_gauge("s", [&] { return 1.0; });
  r.sample_all(0.0);
  r.detach();  // evaluates gauges one last time, then forgets the callbacks
  EXPECT_EQ(live, 1);
  EXPECT_DOUBLE_EQ(r.scalar("g"), 42.0);
  r.collect();
  r.sample_all(1.0);  // no callbacks left: no new points
  EXPECT_EQ(live, 1);
  EXPECT_EQ(r.series().at("s").v.size(), 1u);

  // Movable after detach (the engine returns it inside ScenarioResult).
  Recorder moved = std::move(r);
  EXPECT_DOUBLE_EQ(moved.scalar("g"), 42.0);
}

TEST(Recorder, JsonShape) {
  Recorder r;
  r.set("b", 2.0);
  r.set("a", 1.0);
  r.sample("ts", 0.25, 3.0);
  const std::string json = r.to_json("unit \"test\"");
  EXPECT_NE(json.find("\"schema\": \"xpass.recorder.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"scenario\": \"unit \\\"test\\\"\""),
            std::string::npos);
  // Lexicographic scalar order: "a" before "b".
  EXPECT_LT(json.find("\"a\":"), json.find("\"b\":"));
  EXPECT_NE(json.find("\"t_sec\": [0.25]"), std::string::npos);
  EXPECT_NE(json.find("\"v\": [3]"), std::string::npos);
}

TEST(Recorder, RejectsNonFiniteScalars) {
  Recorder r;
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  r.set("p", 1.0);
  r.set("p", kNan);  // refused: probe keeps its last good value
  r.set("p", kInf);
  r.set("p", -kInf);
  EXPECT_DOUBLE_EQ(r.scalar("p"), 1.0);
  r.set("fresh", kNan);  // refused before the probe ever existed
  EXPECT_FALSE(r.has("fresh"));
  EXPECT_EQ(r.rejected(), 4u);
}

TEST(Recorder, RejectsNonFiniteSamplesWholePoint) {
  Recorder r;
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  r.sample("s", 0.0, 1.0);
  r.sample("s", 0.1, kNan);          // bad value
  r.sample("s", kNan, 2.0);          // bad timestamp
  r.sample("never", kNan, kNan);     // refusal must not create the series
  const auto& s = r.series().at("s");
  ASSERT_EQ(s.t_sec.size(), 1u);  // t/v stay aligned: whole point dropped
  ASSERT_EQ(s.v.size(), 1u);
  EXPECT_EQ(r.series().count("never"), 0u);
  EXPECT_EQ(r.rejected(), 3u);
}

TEST(Recorder, RejectsNonFiniteGaugeReads) {
  Recorder r;
  double v = 3.0;
  r.gauge("g", [&] { return v; });
  r.series_gauge("sg", [&] { return v; });
  r.collect();
  r.sample_all(0.0);
  v = std::numeric_limits<double>::infinity();
  r.collect();        // refused: scalar keeps 3.0
  r.sample_all(1.0);  // refused: no second point
  EXPECT_DOUBLE_EQ(r.scalar("g"), 3.0);
  EXPECT_EQ(r.series().at("sg").v.size(), 1u);
  EXPECT_EQ(r.rejected(), 2u);
  // The JSON stays parseable — no bare nan/inf tokens ever reach it.
  const std::string json = r.to_json("nonfinite");
  EXPECT_EQ(json.find("nan"), std::string::npos);
  EXPECT_EQ(json.find("inf"), std::string::npos);
}

TEST(Recorder, DuplicateProbeNames) {
  Recorder r;
  // Scalars: last push wins.
  r.set("dup", 1.0);
  r.set("dup", 2.0);
  EXPECT_DOUBLE_EQ(r.scalar("dup"), 2.0);
  // Gauges: re-registration replaces the callback.
  r.gauge("gdup", [] { return 10.0; });
  r.gauge("gdup", [] { return 20.0; });
  r.collect();
  EXPECT_DOUBLE_EQ(r.scalar("gdup"), 20.0);
  // A gauge sharing a scalar's name overwrites it at collect() time.
  r.set("gdup", 5.0);
  r.collect();
  EXPECT_DOUBLE_EQ(r.scalar("gdup"), 20.0);
  // Series gauges under one name both feed the same series, in
  // registration order: two points per sweep.
  r.series_gauge("sdup", [] { return 1.0; });
  r.series_gauge("sdup", [] { return 2.0; });
  r.sample_all(0.5);
  const auto& s = r.series().at("sdup");
  ASSERT_EQ(s.v.size(), 2u);
  EXPECT_DOUBLE_EQ(s.v[0], 1.0);
  EXPECT_DOUBLE_EQ(s.v[1], 2.0);
}

TEST(Recorder, EmptySeriesAndEmptyRecorderJson) {
  Recorder r;
  // A registered series gauge that never sampled produces no series entry.
  r.series_gauge("quiet", [] { return 0.0; });
  EXPECT_EQ(r.series().count("quiet"), 0u);
  const std::string empty = r.to_json("empty");
  EXPECT_NE(empty.find("\"schema\": \"xpass.recorder.v1\""),
            std::string::npos);
  EXPECT_NE(empty.find("\"scalars\""), std::string::npos);
}

}  // namespace
