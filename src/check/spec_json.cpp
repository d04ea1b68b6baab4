#include "check/spec_json.hpp"

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <span>
#include <type_traits>
#include <vector>

namespace xpass::check {

namespace {

using runner::HostDelay;
using runner::Protocol;
using runner::ScenarioSpec;
using runner::StopKind;
using runner::TopologyKind;
using runner::TrafficKind;
using workload::WorkloadKind;

// --- enum spellings: one {value, name} table per enum, read both ways -----

template <typename E>
using Spellings = std::span<const std::pair<E, std::string_view>>;

Spellings<TopologyKind> spellings(TopologyKind) {
  static constexpr std::pair<TopologyKind, std::string_view> k[] = {
      {TopologyKind::kDumbbell, "dumbbell"},   {TopologyKind::kStar, "star"},
      {TopologyKind::kFatTree, "fattree"},     {TopologyKind::kClos, "clos"},
      {TopologyKind::kParkingLot, "parking_lot"},
      {TopologyKind::kMultiBottleneck, "multi_bottleneck"}};
  return k;
}
Spellings<HostDelay> spellings(HostDelay) {
  static constexpr std::pair<HostDelay, std::string_view> k[] = {
      {HostDelay::kNone, "none"},
      {HostDelay::kTestbed, "testbed"},
      {HostDelay::kHardware, "hardware"}};
  return k;
}
Spellings<TrafficKind> spellings(TrafficKind) {
  static constexpr std::pair<TrafficKind, std::string_view> k[] = {
      {TrafficKind::kPairwise, "pairwise"}, {TrafficKind::kIncast, "incast"},
      {TrafficKind::kShuffle, "shuffle"},   {TrafficKind::kPoisson, "poisson"},
      {TrafficKind::kChain, "chain"},       {TrafficKind::kOnOff, "onoff"}};
  return k;
}
Spellings<WorkloadKind> spellings(WorkloadKind) {
  static constexpr std::pair<WorkloadKind, std::string_view> k[] = {
      {WorkloadKind::kDataMining, "datamining"},
      {WorkloadKind::kWebSearch, "websearch"},
      {WorkloadKind::kCacheFollower, "cachefollower"},
      {WorkloadKind::kWebServer, "webserver"}};
  return k;
}
Spellings<StopKind> spellings(StopKind) {
  static constexpr std::pair<StopKind, std::string_view> k[] = {
      {StopKind::kRunFor, "run_for"},
      {StopKind::kWindow, "window"},
      {StopKind::kCompletion, "completion"}};
  return k;
}
Spellings<net::LinkFailMode> spellings(net::LinkFailMode) {
  static constexpr std::pair<net::LinkFailMode, std::string_view> k[] = {
      {net::LinkFailMode::kDrain, "drain"}, {net::LinkFailMode::kDrop, "drop"}};
  return k;
}

template <typename E>
std::string_view enum_name(E e) {
  for (const auto& [value, name] : spellings(e)) {
    if (value == e) return name;
  }
  return "?";
}

template <typename E>
bool enum_from(std::string_view s, E& out) {
  for (const auto& [value, name] : spellings(out)) {
    if (name == s) {
      out = value;
      return true;
    }
  }
  return false;
}

// Protocol spellings belong to the runner (the CLI reads them too).
std::string_view enum_name(Protocol p) { return runner::protocol_name(p); }

bool enum_from(std::string_view s, Protocol& out) {
  const std::optional<Protocol> p = runner::parse_protocol(s);
  if (p) out = *p;
  return p.has_value();
}

// --- the field table ------------------------------------------------------
// Each spec struct names its members once, in canonical order. `io` is a
// Writer (spec -> JSON) or a Reader (JSON -> spec):
//   io(key, field)        a member;
//   io(key, field, emit)  written only when `emit`, read whenever present;
//   io(key, optional)     written only when set;
//   io.object(key, sub)   a nested struct (an optional one: only when set);
//   io.groups(key, vec)   the flow_groups array, written only when non-empty.
// Members written only sometimes are so that every document from before
// they existed (and its campaign cache key) stays byte-identical.

void fields(auto& io, runner::ClosScale& c) {
  io("n_core", c.n_core);
  io("pods", c.pods);
  io("aggr_per_pod", c.aggr_per_pod);
  io("tor_per_pod", c.tor_per_pod);
  io("hosts_per_tor", c.hosts_per_tor);
}

void fields(auto& io, runner::TopologySpec& t) {
  io("kind", t.kind);
  io("scale", t.scale);
  io("fat_tree_k", t.fat_tree_k);
  io.object("clos", t.clos);
  io("host_rate_bps", t.host_rate_bps);
  io("fabric_rate_bps", t.fabric_rate_bps);
  io("host_prop_ps", t.host_prop);
  io("fabric_prop_ps", t.fabric_prop);
  io("credit_queue_pkts", t.credit_queue_pkts);
  io("host_credit_shaper_noise", t.host_credit_shaper_noise);
  io("host_delay", t.host_delay);
  io("packet_spraying", t.packet_spraying);
  io("link_jitter_ps", t.link_jitter, t.link_jitter > sim::Time::zero());
}

void fields(auto& io, core::ExpressPassConfig& x) {
  io("alpha_init", x.alpha_init);
  io("w_init", x.w_init);
  io("w_min", x.w_min);
  io("w_max", x.w_max);
  io("target_loss", x.target_loss);
  io("jitter", x.jitter);
  io("randomize_credit_size", x.randomize_credit_size);
  io("naive", x.naive);
  io("update_period_ps", x.update_period);
  io("max_rate_bps", x.max_rate_bps);
  io("traffic_class", x.traffic_class);
  io("request_timeout_ps", x.request_timeout);
  io("request_backoff", x.request_backoff);
  io("request_timeout_cap_ps", x.request_timeout_cap);
  io("request_jitter", x.request_jitter);
  io("max_dead_retries", x.max_dead_retries);
  io("receiver_dead_periods", x.receiver_dead_periods);
  io("stop_retx_interval_ps", x.stop_retx_interval);
}

void fields(auto& io, runner::TrafficSpec& t) {
  io("kind", t.kind);
  io("flows", t.flows);
  io("bytes", t.bytes);
  io("start_spread_sec", t.start_spread_sec);
  io("tasks_per_host", t.tasks_per_host);
  io("workload", t.workload);
  io("load", t.load);
  io("capacity_bps", t.capacity_bps);
  const bool onoff = t.kind == TrafficKind::kOnOff;
  io("on_period_sec", t.on_period_sec, onoff);
  io("on_duty", t.on_duty, onoff);
  io("flow_id_salt", t.flow_id_salt);
}

void fields(auto& io, runner::FlowGroupSpec& g) {
  io("protocol", g.protocol);
  io("share", g.share);
  io.object("traffic", g.traffic);
}

void fields(auto& io, runner::StopSpec& s) {
  io("kind", s.kind);
  io("horizon_ps", s.horizon);
  io("warmup_ps", s.warmup);
  io("window_ps", s.window);
}

void fields(auto& io, runner::TelemetrySpec& t) {
  io("sample_interval_ps", t.sample_interval);
  io("bottleneck_queue_series", t.bottleneck_queue_series);
  io("per_port_queue_series", t.per_port_queue_series);
  io("flow_rate_series", t.flow_rate_series);
}

void fields(auto& io, sim::RunBudget& b) {
  io("max_events", b.max_events);
  io("max_sim_time_ps", b.max_sim_time);
  io("max_wall_ms", b.max_wall_ms);
  io("max_live_events", b.max_live_events);
}

void fields(auto& io, net::LinkErrorConfig& e) {
  io("data_drop", e.data_drop);
  io("credit_drop", e.credit_drop);
  io("data_corrupt", e.data_corrupt);
  io("credit_corrupt", e.credit_corrupt);
  io("ge_good_to_bad", e.ge_good_to_bad);
  io("ge_bad_to_good", e.ge_bad_to_good);
  io("ge_drop_good", e.ge_drop_good);
  io("ge_drop_bad", e.ge_drop_bad);
}

void fields(auto& io, runner::FaultScenario& f) {
  io("flap_down_ps", f.flap_down);
  io("flap_up_ps", f.flap_up);
  io("kill_at_ps", f.kill_at);
  io("fail_mode", f.fail_mode);
  io.object("errors", f.errors);
}

void fields(auto& io, ScenarioSpec& s) {
  io("name", s.name);
  io("seed", s.seed);
  io("protocol", s.protocol);
  io("base_rtt_ps", s.base_rtt);
  io.object("topology", s.topology);
  io.object("xp", s.xp);
  io.object("traffic", s.traffic);
  io.groups("flow_groups", s.flow_groups);
  io.object("stop", s.stop);
  io.object("telemetry", s.telemetry);
  io.object("budget", s.budget);
  io.object("faults", s.faults);
  io("fault_seed", s.fault_seed);
  io("check_invariants", s.check_invariants);
}

// --- scalars ----------------------------------------------------------------
// Times are exact integer picoseconds, rates shortest-round-trip doubles,
// counts exact unsigned integers, enums their spellings.

// Largest value an integer member (or a picosecond time) may take.
template <typename T>
constexpr uint64_t kMaxInteger = std::numeric_limits<T>::max();
template <>
constexpr uint64_t kMaxInteger<sim::Time> = std::numeric_limits<int64_t>::max();

template <typename T>
Json to_json(const T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return Json::boolean(v);
  } else if constexpr (std::is_same_v<T, double>) {
    return Json::number(v);
  } else if constexpr (std::is_same_v<T, std::string>) {
    return Json::str(v);
  } else if constexpr (std::is_enum_v<T>) {
    return Json::str(std::string(enum_name(v)));
  } else if constexpr (std::is_same_v<T, sim::Time>) {
    return Json::u64(static_cast<uint64_t>(v.picos()));
  } else {
    static_assert(std::is_unsigned_v<T>);
    return Json::u64(v);
  }
}

// Reads `v` into `out`; false when `v` is not a value of out's type.
// Doubles take any number; integers and times only unsigned integer
// literals up to kMaxInteger<T>.
template <typename T>
bool from_json(const Json& v, T& out) {
  if constexpr (std::is_same_v<T, bool>) {
    if (v.type() != Json::Type::kBool) return false;
    out = v.as_bool();
  } else if constexpr (std::is_same_v<T, double>) {
    if (v.type() != Json::Type::kNumber) return false;
    out = v.as_double();
  } else if constexpr (std::is_same_v<T, std::string>) {
    if (v.type() != Json::Type::kString) return false;
    out = v.as_string();
  } else if constexpr (std::is_enum_v<T>) {
    return enum_from(v.as_string(), out);
  } else {
    if (!v.is_u64() || v.as_u64() > kMaxInteger<T>) return false;
    if constexpr (std::is_same_v<T, sim::Time>) {
      out = sim::Time::ps(static_cast<int64_t>(v.as_u64()));
    } else {
      out = static_cast<T>(v.as_u64());
    }
  }
  return true;
}

// Why from_json refused `v`.
template <typename T>
std::string expected(const Json& v) {
  if constexpr (std::is_same_v<T, bool>) {
    return "expected true or false";
  } else if constexpr (std::is_same_v<T, double>) {
    return "expected a number";
  } else if constexpr (std::is_same_v<T, std::string>) {
    return "expected a string";
  } else if constexpr (std::is_enum_v<T>) {
    return v.type() == Json::Type::kString
               ? "unknown value '" + v.as_string() + "'"
               : "expected a string";
  } else {
    return "expected an integer in [0, " + std::to_string(kMaxInteger<T>) +
           "]";
  }
}

// --- writer and reader ------------------------------------------------------

class Writer {
 public:
  // `obj` with the members of `s` appended.
  template <typename T>
  static Json write(T& s, Json obj = Json::object()) {
    Writer w(std::move(obj));
    fields(w, s);
    return std::move(w.obj_);
  }

  void operator()(const char* key, const auto& v, bool emit = true) {
    if (emit) obj_.set(key, to_json(v));
  }
  template <typename T>
  void operator()(const char* key, const std::optional<T>& v) {
    if (v) obj_.set(key, to_json(*v));
  }
  void object(const char* key, auto& sub) { obj_.set(key, write(sub)); }
  template <typename T>
  void object(const char* key, std::optional<T>& sub) {
    if (sub) object(key, *sub);
  }
  void groups(const char* key, std::vector<runner::FlowGroupSpec>& gs) {
    if (gs.empty()) return;
    Json arr = Json::array();
    for (runner::FlowGroupSpec& g : gs) arr.push(write(g));
    obj_.set(key, std::move(arr));
  }

 private:
  explicit Writer(Json obj) : obj_(std::move(obj)) {}
  Json obj_;
};

// Reads one JSON object, marking each member the table asks for by index;
// finish() rejects the first member left unmarked. The first error wins
// `why`. Error paths are built from the parent chain, and only on failure.
class Reader {
 public:
  static constexpr size_t kNoIndex = std::numeric_limits<size_t>::max();

  // `obj` is member `key` (element `index` of it) of the object `parent`
  // reads; the document itself has no parent.
  Reader(const Json& obj, std::string& why, const Reader* parent = nullptr,
         std::string_view key = {}, size_t index = kNoIndex)
      : obj_(obj), why_(why), parent_(parent), key_(key), index_(index) {}

  void operator()(const char* key, auto& field, bool /*emit*/ = true) {
    if (const Json* v = take(key)) read(key, *v, field);
  }
  template <typename T>
  void operator()(const char* key, std::optional<T>& field) {
    if (const Json* v = take(key)) read(key, *v, field.emplace());
  }
  void object(const char* key, auto& sub) {
    if (const Json* v = take(key)) read_object(*v, sub, key);
  }
  template <typename T>
  void object(const char* key, std::optional<T>& sub) {
    if (const Json* v = take(key)) read_object(*v, sub.emplace(), key);
  }
  void groups(const char* key, std::vector<runner::FlowGroupSpec>& gs) {
    const Json* v = take(key);
    if (v == nullptr) return;
    if (v->type() != Json::Type::kArray) {
      return fail(key, kNoIndex, "expected an array");
    }
    for (size_t i = 0; i < v->items().size(); ++i) {
      read_object(v->items()[i], gs.emplace_back(), key, i);
    }
  }

  // Member `key`, marked as read; nullptr when absent.
  const Json* take(std::string_view key);
  // Rejects the first member no take() asked for.
  void finish();
  // Records the error unless an earlier one already did.
  void set(std::initializer_list<std::string_view> parts);

 private:
  template <typename T>
  void read(const char* key, const Json& v, T& field) {
    if (!from_json(v, field)) fail(key, kNoIndex, expected<T>(v));
  }

  void read_object(const Json& v, auto& sub, const char* key,
                   size_t index = kNoIndex) {
    if (v.type() != Json::Type::kObject) {
      return fail(key, index, "expected an object");
    }
    Reader r(v, why_, this, key, index);
    fields(r, sub);
    r.finish();
  }

  void fail(std::string_view key, size_t index, const std::string& problem);
  // Dotted path of member `key` (element `index` of it) of this object.
  std::string path(std::string_view key, size_t index = kNoIndex) const;

  const Json& obj_;
  std::string& why_;
  const Reader* parent_;
  std::string_view key_;
  size_t index_;
  // Bit i: member i was read. No table has 64 members and keys are unique,
  // so an object with more than 64 has an unread one among its first 64.
  uint64_t seen_ = 0;
  size_t next_ = 0;
};

// Canonical documents list members in table order, so the search starts
// after the last hit.
const Json* Reader::take(std::string_view key) {
  const auto& m = obj_.members();
  for (size_t n = 0, i = next_; n < m.size(); ++n, ++i) {
    if (i == m.size()) i = 0;
    if (m[i].first == key) {
      if (i < 64) seen_ |= uint64_t{1} << i;
      next_ = i + 1;
      return &m[i].second;
    }
  }
  return nullptr;
}

void Reader::finish() {
  const auto& m = obj_.members();
  for (size_t i = 0; i < m.size() && i < 64; ++i) {
    if ((seen_ >> i & 1) == 0) {
      return set({"unknown member '", path(m[i].first), "'"});
    }
  }
}

void Reader::set(std::initializer_list<std::string_view> parts) {
  if (!why_.empty()) return;
  for (std::string_view p : parts) why_ += p;
}

void Reader::fail(std::string_view key, size_t index,
                  const std::string& problem) {
  set({"'", path(key, index), "': ", problem});
}

std::string Reader::path(std::string_view key, size_t index) const {
  std::string out;
  if (parent_ != nullptr) {
    out = parent_->path(key_, index_);
    out += '.';
  }
  out += key;
  if (index != kNoIndex) {
    out += '[';
    out += std::to_string(index);
    out += ']';
  }
  return out;
}

}  // namespace

Json spec_to_json_doc(const ScenarioSpec& spec) {
  Json doc = Json::object();
  doc.set("schema", Json::str(std::string(kSpecSchema)));
  // The writer only reads; the table takes mutable references so that one
  // description serves both directions.
  return Writer::write(const_cast<ScenarioSpec&>(spec), std::move(doc));
}

std::string spec_to_json(const ScenarioSpec& spec) {
  return spec_to_json_doc(spec).dump(2) + "\n";
}

std::optional<ScenarioSpec> spec_from_json_doc(const Json& doc,
                                               std::string* err) {
  std::string why;
  ScenarioSpec spec;
  Reader r(doc, why);
  if (doc.type() != Json::Type::kObject) {
    why = "spec document is not an object";
  } else if (const Json* s = r.take("schema");
             s != nullptr && s->as_string() != kSpecSchema) {
    why = "unknown schema " + s->dump();
  } else {
    // Stored specs may still carry "shards": 0 and 1 meant the serial
    // engine, which is the only one; more would silently change meaning.
    uint64_t shards = 0;
    r("shards", shards);
    if (shards > 1) {
      r.set({"shards > 1 is not supported: the sharded engine was removed; "
             "drop the field or set it to 1"});
    }
    fields(r, spec);
    r.finish();
  }
  if (why.empty()) return spec;
  if (err != nullptr) *err = why;
  return std::nullopt;
}

std::optional<ScenarioSpec> spec_from_json(const std::string& text,
                                           std::string* err) {
  auto doc = Json::parse(text, err);
  if (!doc) return std::nullopt;
  return spec_from_json_doc(*doc, err);
}

}  // namespace xpass::check
