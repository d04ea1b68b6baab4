#include "check/spec_json.hpp"

namespace xpass::check {

namespace {

using runner::HostDelay;
using runner::Protocol;
using runner::ScenarioSpec;
using runner::StopKind;
using runner::TopologyKind;
using runner::TrafficKind;
using workload::WorkloadKind;

// --- enum spellings -------------------------------------------------------

std::string_view topology_kind_name(TopologyKind k) {
  switch (k) {
    case TopologyKind::kDumbbell: return "dumbbell";
    case TopologyKind::kStar: return "star";
    case TopologyKind::kFatTree: return "fattree";
    case TopologyKind::kClos: return "clos";
    case TopologyKind::kParkingLot: return "parking_lot";
    case TopologyKind::kMultiBottleneck: return "multi_bottleneck";
  }
  return "?";
}

std::optional<TopologyKind> parse_topology_kind(std::string_view s) {
  for (TopologyKind k :
       {TopologyKind::kDumbbell, TopologyKind::kStar, TopologyKind::kFatTree,
        TopologyKind::kClos, TopologyKind::kParkingLot,
        TopologyKind::kMultiBottleneck}) {
    if (s == topology_kind_name(k)) return k;
  }
  return std::nullopt;
}

std::string_view host_delay_name(HostDelay d) {
  switch (d) {
    case HostDelay::kNone: return "none";
    case HostDelay::kTestbed: return "testbed";
    case HostDelay::kHardware: return "hardware";
  }
  return "?";
}

std::optional<HostDelay> parse_host_delay(std::string_view s) {
  for (HostDelay d :
       {HostDelay::kNone, HostDelay::kTestbed, HostDelay::kHardware}) {
    if (s == host_delay_name(d)) return d;
  }
  return std::nullopt;
}

std::string_view traffic_kind_name(TrafficKind k) {
  switch (k) {
    case TrafficKind::kPairwise: return "pairwise";
    case TrafficKind::kIncast: return "incast";
    case TrafficKind::kShuffle: return "shuffle";
    case TrafficKind::kPoisson: return "poisson";
    case TrafficKind::kChain: return "chain";
    case TrafficKind::kOnOff: return "onoff";
  }
  return "?";
}

std::optional<TrafficKind> parse_traffic_kind(std::string_view s) {
  for (TrafficKind k :
       {TrafficKind::kPairwise, TrafficKind::kIncast, TrafficKind::kShuffle,
        TrafficKind::kPoisson, TrafficKind::kChain, TrafficKind::kOnOff}) {
    if (s == traffic_kind_name(k)) return k;
  }
  return std::nullopt;
}

std::string_view workload_kind_name(WorkloadKind k) {
  switch (k) {
    case WorkloadKind::kDataMining: return "datamining";
    case WorkloadKind::kWebSearch: return "websearch";
    case WorkloadKind::kCacheFollower: return "cachefollower";
    case WorkloadKind::kWebServer: return "webserver";
  }
  return "?";
}

std::optional<WorkloadKind> parse_workload_kind(std::string_view s) {
  for (WorkloadKind k :
       {WorkloadKind::kDataMining, WorkloadKind::kWebSearch,
        WorkloadKind::kCacheFollower, WorkloadKind::kWebServer}) {
    if (s == workload_kind_name(k)) return k;
  }
  return std::nullopt;
}

std::string_view stop_kind_name(StopKind k) {
  switch (k) {
    case StopKind::kRunFor: return "run_for";
    case StopKind::kWindow: return "window";
    case StopKind::kCompletion: return "completion";
  }
  return "?";
}

std::optional<StopKind> parse_stop_kind(std::string_view s) {
  for (StopKind k :
       {StopKind::kRunFor, StopKind::kWindow, StopKind::kCompletion}) {
    if (s == stop_kind_name(k)) return k;
  }
  return std::nullopt;
}

std::string_view fail_mode_name(net::LinkFailMode m) {
  return m == net::LinkFailMode::kDrain ? "drain" : "drop";
}

std::optional<net::LinkFailMode> parse_fail_mode(std::string_view s) {
  if (s == "drain") return net::LinkFailMode::kDrain;
  if (s == "drop") return net::LinkFailMode::kDrop;
  return std::nullopt;
}

// --- field helpers --------------------------------------------------------

Json time_json(sim::Time t) {
  // Spec times are nonnegative; exact integer picoseconds round-trip.
  return Json::u64(static_cast<uint64_t>(t.picos()));
}

sim::Time time_from(const Json& obj, const std::string& key, sim::Time dflt) {
  const Json* v = obj.find(key);
  if (v == nullptr) return dflt;
  return sim::Time::ps(static_cast<int64_t>(v->as_u64(0)));
}

// One shared error slot: the first problem wins, later set() calls no-op.
struct ErrorSink {
  std::string* err;
  bool failed = false;
  void set(const std::string& msg) {
    if (!failed && err != nullptr) *err = msg;
    failed = true;
  }
};

template <typename Enum, typename ParseFn>
Enum parse_enum_member(const Json& obj, const std::string& key, Enum dflt,
                       ParseFn&& parse, ErrorSink& sink) {
  const Json* v = obj.find(key);
  if (v == nullptr) return dflt;
  auto parsed = parse(v->as_string());
  if (!parsed) {
    sink.set("unknown " + key + " '" + v->as_string() + "'");
    return dflt;
  }
  return *parsed;
}

// --- traffic (shared by spec.traffic and flow_groups[i].traffic) ----------

Json traffic_json(const runner::TrafficSpec& tr) {
  Json traffic = Json::object();
  traffic.set("kind", Json::str(std::string(traffic_kind_name(tr.kind))));
  traffic.set("flows", Json::u64(tr.flows));
  traffic.set("bytes", Json::u64(tr.bytes));
  traffic.set("start_spread_sec", Json::number(tr.start_spread_sec));
  traffic.set("tasks_per_host", Json::u64(tr.tasks_per_host));
  traffic.set("workload",
              Json::str(std::string(workload_kind_name(tr.workload))));
  traffic.set("load", Json::number(tr.load));
  if (tr.capacity_bps) {
    traffic.set("capacity_bps", Json::number(*tr.capacity_bps));
  }
  // On/off parameters only for on/off traffic: every pre-existing canonical
  // document (and campaign cache key) must stay byte-identical.
  if (tr.kind == TrafficKind::kOnOff) {
    traffic.set("on_period_sec", Json::number(tr.on_period_sec));
    traffic.set("on_duty", Json::number(tr.on_duty));
  }
  traffic.set("flow_id_salt", Json::u64(tr.flow_id_salt));
  return traffic;
}

void traffic_from(const Json& t, runner::TrafficSpec& tr, ErrorSink& sink) {
  tr.kind = parse_enum_member(t, "kind", tr.kind, parse_traffic_kind, sink);
  tr.flows = static_cast<size_t>(t.get_u64("flows", tr.flows));
  tr.bytes = t.get_u64("bytes", tr.bytes);
  tr.start_spread_sec = t.get_double("start_spread_sec", tr.start_spread_sec);
  tr.tasks_per_host =
      static_cast<size_t>(t.get_u64("tasks_per_host", tr.tasks_per_host));
  tr.workload = parse_enum_member(t, "workload", tr.workload,
                                  parse_workload_kind, sink);
  tr.load = t.get_double("load", tr.load);
  if (const Json* v = t.find("capacity_bps")) {
    tr.capacity_bps = v->as_double(0.0);
  }
  tr.on_period_sec = t.get_double("on_period_sec", tr.on_period_sec);
  tr.on_duty = t.get_double("on_duty", tr.on_duty);
  tr.flow_id_salt =
      static_cast<uint32_t>(t.get_u64("flow_id_salt", tr.flow_id_salt));
}

}  // namespace

Json spec_to_json_doc(const ScenarioSpec& spec) {
  Json doc = Json::object();
  doc.set("schema", Json::str(std::string(kSpecSchema)));
  doc.set("name", Json::str(spec.name));
  doc.set("seed", Json::u64(spec.seed));
  doc.set("protocol",
          Json::str(std::string(runner::protocol_name(spec.protocol))));
  doc.set("base_rtt_ps", time_json(spec.base_rtt));

  Json topo = Json::object();
  const runner::TopologySpec& ts = spec.topology;
  topo.set("kind", Json::str(std::string(topology_kind_name(ts.kind))));
  topo.set("scale", Json::u64(ts.scale));
  topo.set("fat_tree_k", Json::u64(ts.fat_tree_k));
  Json clos = Json::object();
  clos.set("n_core", Json::u64(ts.clos.n_core));
  clos.set("pods", Json::u64(ts.clos.pods));
  clos.set("aggr_per_pod", Json::u64(ts.clos.aggr_per_pod));
  clos.set("tor_per_pod", Json::u64(ts.clos.tor_per_pod));
  clos.set("hosts_per_tor", Json::u64(ts.clos.hosts_per_tor));
  topo.set("clos", std::move(clos));
  topo.set("host_rate_bps", Json::number(ts.host_rate_bps));
  topo.set("fabric_rate_bps", Json::number(ts.fabric_rate_bps));
  topo.set("host_prop_ps", time_json(ts.host_prop));
  topo.set("fabric_prop_ps", time_json(ts.fabric_prop));
  if (ts.credit_queue_pkts) {
    topo.set("credit_queue_pkts", Json::u64(*ts.credit_queue_pkts));
  }
  if (ts.host_credit_shaper_noise) {
    topo.set("host_credit_shaper_noise",
             Json::number(*ts.host_credit_shaper_noise));
  }
  topo.set("host_delay",
           Json::str(std::string(host_delay_name(ts.host_delay))));
  topo.set("packet_spraying", Json::boolean(ts.packet_spraying));
  // Only when jittered: zero-jitter specs canonicalize byte-identically to
  // their pre-jitter documents.
  if (ts.link_jitter > sim::Time::zero()) {
    topo.set("link_jitter_ps", time_json(ts.link_jitter));
  }
  doc.set("topology", std::move(topo));

  if (spec.xp) {
    const core::ExpressPassConfig& x = *spec.xp;
    Json xp = Json::object();
    xp.set("alpha_init", Json::number(x.alpha_init));
    xp.set("w_init", Json::number(x.w_init));
    xp.set("w_min", Json::number(x.w_min));
    xp.set("w_max", Json::number(x.w_max));
    xp.set("target_loss", Json::number(x.target_loss));
    xp.set("jitter", Json::number(x.jitter));
    xp.set("randomize_credit_size", Json::boolean(x.randomize_credit_size));
    xp.set("naive", Json::boolean(x.naive));
    xp.set("update_period_ps", time_json(x.update_period));
    xp.set("max_rate_bps", Json::number(x.max_rate_bps));
    xp.set("traffic_class", Json::u64(x.traffic_class));
    xp.set("request_timeout_ps", time_json(x.request_timeout));
    xp.set("request_backoff", Json::number(x.request_backoff));
    xp.set("request_timeout_cap_ps", time_json(x.request_timeout_cap));
    xp.set("request_jitter", Json::number(x.request_jitter));
    xp.set("max_dead_retries", Json::u64(x.max_dead_retries));
    xp.set("receiver_dead_periods", Json::u64(x.receiver_dead_periods));
    xp.set("stop_retx_interval_ps", time_json(x.stop_retx_interval));
    doc.set("xp", std::move(xp));
  }

  doc.set("traffic", traffic_json(spec.traffic));

  // Mixed-protocol coexistence groups, only when present: single-group
  // specs canonicalize byte-identically to their pre-coexistence documents.
  if (!spec.flow_groups.empty()) {
    Json groups = Json::array();
    for (const runner::FlowGroupSpec& g : spec.flow_groups) {
      Json entry = Json::object();
      entry.set("protocol",
                Json::str(std::string(runner::protocol_name(g.protocol))));
      entry.set("share", Json::number(g.share));
      entry.set("traffic", traffic_json(g.traffic));
      groups.push(std::move(entry));
    }
    doc.set("flow_groups", std::move(groups));
  }

  Json stop = Json::object();
  stop.set("kind", Json::str(std::string(stop_kind_name(spec.stop.kind))));
  stop.set("horizon_ps", time_json(spec.stop.horizon));
  stop.set("warmup_ps", time_json(spec.stop.warmup));
  stop.set("window_ps", time_json(spec.stop.window));
  doc.set("stop", std::move(stop));

  Json tel = Json::object();
  tel.set("sample_interval_ps", time_json(spec.telemetry.sample_interval));
  tel.set("bottleneck_queue_series",
          Json::boolean(spec.telemetry.bottleneck_queue_series));
  tel.set("per_port_queue_series",
          Json::boolean(spec.telemetry.per_port_queue_series));
  tel.set("flow_rate_series",
          Json::boolean(spec.telemetry.flow_rate_series));
  doc.set("telemetry", std::move(tel));

  if (spec.budget) {
    const sim::RunBudget& b = *spec.budget;
    Json budget = Json::object();
    budget.set("max_events", Json::u64(b.max_events));
    budget.set("max_sim_time_ps", time_json(b.max_sim_time));
    budget.set("max_wall_ms", Json::number(b.max_wall_ms));
    budget.set("max_live_events", Json::u64(b.max_live_events));
    doc.set("budget", std::move(budget));
  }

  Json faults = Json::object();
  const runner::FaultScenario& f = spec.faults;
  faults.set("flap_down_ps", time_json(f.flap_down));
  faults.set("flap_up_ps", time_json(f.flap_up));
  faults.set("kill_at_ps", time_json(f.kill_at));
  faults.set("fail_mode", Json::str(std::string(fail_mode_name(f.fail_mode))));
  Json errors = Json::object();
  errors.set("data_drop", Json::number(f.errors.data_drop));
  errors.set("credit_drop", Json::number(f.errors.credit_drop));
  errors.set("data_corrupt", Json::number(f.errors.data_corrupt));
  errors.set("credit_corrupt", Json::number(f.errors.credit_corrupt));
  errors.set("ge_good_to_bad", Json::number(f.errors.ge_good_to_bad));
  errors.set("ge_bad_to_good", Json::number(f.errors.ge_bad_to_good));
  errors.set("ge_drop_good", Json::number(f.errors.ge_drop_good));
  errors.set("ge_drop_bad", Json::number(f.errors.ge_drop_bad));
  faults.set("errors", std::move(errors));
  doc.set("faults", std::move(faults));

  doc.set("fault_seed", Json::u64(spec.fault_seed));
  doc.set("check_invariants", Json::boolean(spec.check_invariants));
  return doc;
}

std::string spec_to_json(const ScenarioSpec& spec) {
  return spec_to_json_doc(spec).dump(2) + "\n";
}

std::optional<ScenarioSpec> spec_from_json_doc(const Json& doc,
                                               std::string* err) {
  ErrorSink sink{err};
  if (doc.type() != Json::Type::kObject) {
    sink.set("spec document is not an object");
    return std::nullopt;
  }
  const std::string schema = doc.get_string("schema", std::string(kSpecSchema));
  if (schema != kSpecSchema) {
    sink.set("unknown schema '" + schema + "'");
    return std::nullopt;
  }

  ScenarioSpec spec;
  spec.name = doc.get_string("name", spec.name);
  spec.seed = doc.get_u64("seed", spec.seed);
  if (const Json* p = doc.find("protocol")) {
    auto parsed = runner::parse_protocol(p->as_string());
    if (!parsed) {
      sink.set("unknown protocol '" + p->as_string() + "'");
      return std::nullopt;
    }
    spec.protocol = *parsed;
  }
  spec.base_rtt = time_from(doc, "base_rtt_ps", spec.base_rtt);

  if (const Json* t = doc.find("topology")) {
    runner::TopologySpec& ts = spec.topology;
    ts.kind = parse_enum_member(*t, "kind", ts.kind, parse_topology_kind,
                                sink);
    ts.scale = static_cast<size_t>(t->get_u64("scale", ts.scale));
    ts.fat_tree_k =
        static_cast<size_t>(t->get_u64("fat_tree_k", ts.fat_tree_k));
    if (const Json* c = t->find("clos")) {
      ts.clos.n_core = static_cast<size_t>(c->get_u64("n_core",
                                                      ts.clos.n_core));
      ts.clos.pods = static_cast<size_t>(c->get_u64("pods", ts.clos.pods));
      ts.clos.aggr_per_pod =
          static_cast<size_t>(c->get_u64("aggr_per_pod", ts.clos.aggr_per_pod));
      ts.clos.tor_per_pod =
          static_cast<size_t>(c->get_u64("tor_per_pod", ts.clos.tor_per_pod));
      ts.clos.hosts_per_tor = static_cast<size_t>(
          c->get_u64("hosts_per_tor", ts.clos.hosts_per_tor));
    }
    ts.host_rate_bps = t->get_double("host_rate_bps", ts.host_rate_bps);
    ts.fabric_rate_bps = t->get_double("fabric_rate_bps", ts.fabric_rate_bps);
    ts.host_prop = time_from(*t, "host_prop_ps", ts.host_prop);
    ts.fabric_prop = time_from(*t, "fabric_prop_ps", ts.fabric_prop);
    if (const Json* v = t->find("credit_queue_pkts")) {
      ts.credit_queue_pkts = static_cast<size_t>(v->as_u64(0));
    }
    if (const Json* v = t->find("host_credit_shaper_noise")) {
      ts.host_credit_shaper_noise = v->as_double(0.0);
    }
    ts.host_delay = parse_enum_member(*t, "host_delay", ts.host_delay,
                                      parse_host_delay, sink);
    ts.packet_spraying = t->get_bool("packet_spraying", ts.packet_spraying);
    ts.link_jitter = time_from(*t, "link_jitter_ps", ts.link_jitter);
  }

  if (const Json* x = doc.find("xp")) {
    core::ExpressPassConfig cfg;
    cfg.alpha_init = x->get_double("alpha_init", cfg.alpha_init);
    cfg.w_init = x->get_double("w_init", cfg.w_init);
    cfg.w_min = x->get_double("w_min", cfg.w_min);
    cfg.w_max = x->get_double("w_max", cfg.w_max);
    cfg.target_loss = x->get_double("target_loss", cfg.target_loss);
    cfg.jitter = x->get_double("jitter", cfg.jitter);
    cfg.randomize_credit_size =
        x->get_bool("randomize_credit_size", cfg.randomize_credit_size);
    cfg.naive = x->get_bool("naive", cfg.naive);
    cfg.update_period = time_from(*x, "update_period_ps", cfg.update_period);
    cfg.max_rate_bps = x->get_double("max_rate_bps", cfg.max_rate_bps);
    cfg.traffic_class =
        static_cast<uint8_t>(x->get_u64("traffic_class", cfg.traffic_class));
    cfg.request_timeout =
        time_from(*x, "request_timeout_ps", cfg.request_timeout);
    cfg.request_backoff = x->get_double("request_backoff", cfg.request_backoff);
    cfg.request_timeout_cap =
        time_from(*x, "request_timeout_cap_ps", cfg.request_timeout_cap);
    cfg.request_jitter = x->get_double("request_jitter", cfg.request_jitter);
    cfg.max_dead_retries = static_cast<uint32_t>(
        x->get_u64("max_dead_retries", cfg.max_dead_retries));
    cfg.receiver_dead_periods = static_cast<uint32_t>(
        x->get_u64("receiver_dead_periods", cfg.receiver_dead_periods));
    cfg.stop_retx_interval =
        time_from(*x, "stop_retx_interval_ps", cfg.stop_retx_interval);
    spec.xp = cfg;
  }

  if (const Json* t = doc.find("traffic")) {
    traffic_from(*t, spec.traffic, sink);
  }

  if (const Json* gs = doc.find("flow_groups")) {
    if (gs->type() != Json::Type::kArray) {
      sink.set("flow_groups is not an array");
      return std::nullopt;
    }
    for (const Json& entry : gs->items()) {
      runner::FlowGroupSpec g;
      if (const Json* p = entry.find("protocol")) {
        auto parsed = runner::parse_protocol(p->as_string());
        if (!parsed) {
          sink.set("unknown flow_groups protocol '" + p->as_string() + "'");
          return std::nullopt;
        }
        g.protocol = *parsed;
      }
      g.share = entry.get_double("share", g.share);
      if (const Json* t = entry.find("traffic")) {
        traffic_from(*t, g.traffic, sink);
      }
      spec.flow_groups.push_back(std::move(g));
    }
  }

  if (const Json* s = doc.find("stop")) {
    spec.stop.kind = parse_enum_member(*s, "kind", spec.stop.kind,
                                       parse_stop_kind, sink);
    spec.stop.horizon = time_from(*s, "horizon_ps", spec.stop.horizon);
    spec.stop.warmup = time_from(*s, "warmup_ps", spec.stop.warmup);
    spec.stop.window = time_from(*s, "window_ps", spec.stop.window);
  }

  if (const Json* t = doc.find("telemetry")) {
    runner::TelemetrySpec& tel = spec.telemetry;
    tel.sample_interval =
        time_from(*t, "sample_interval_ps", tel.sample_interval);
    tel.bottleneck_queue_series =
        t->get_bool("bottleneck_queue_series", tel.bottleneck_queue_series);
    tel.per_port_queue_series =
        t->get_bool("per_port_queue_series", tel.per_port_queue_series);
    tel.flow_rate_series =
        t->get_bool("flow_rate_series", tel.flow_rate_series);
  }

  // Stored specs may still carry "shards": 0 and 1 meant the serial engine,
  // which is the only one; anything larger would silently change meaning.
  if (doc.get_u64("shards", 0) > 1) {
    sink.set("shards > 1 is not supported: the sharded engine was removed; "
             "drop the field or set it to 1");
  }
  if (const Json* b = doc.find("budget")) {
    sim::RunBudget budget;
    budget.max_events = b->get_u64("max_events", budget.max_events);
    budget.max_sim_time = time_from(*b, "max_sim_time_ps", budget.max_sim_time);
    budget.max_wall_ms = b->get_double("max_wall_ms", budget.max_wall_ms);
    budget.max_live_events = static_cast<size_t>(
        b->get_u64("max_live_events", budget.max_live_events));
    spec.budget = budget;
  }

  if (const Json* f = doc.find("faults")) {
    runner::FaultScenario& fs = spec.faults;
    fs.flap_down = time_from(*f, "flap_down_ps", fs.flap_down);
    fs.flap_up = time_from(*f, "flap_up_ps", fs.flap_up);
    fs.kill_at = time_from(*f, "kill_at_ps", fs.kill_at);
    fs.fail_mode = parse_enum_member(*f, "fail_mode", fs.fail_mode,
                                     parse_fail_mode, sink);
    if (const Json* e = f->find("errors")) {
      net::LinkErrorConfig& ec = fs.errors;
      ec.data_drop = e->get_double("data_drop", ec.data_drop);
      ec.credit_drop = e->get_double("credit_drop", ec.credit_drop);
      ec.data_corrupt = e->get_double("data_corrupt", ec.data_corrupt);
      ec.credit_corrupt = e->get_double("credit_corrupt", ec.credit_corrupt);
      ec.ge_good_to_bad = e->get_double("ge_good_to_bad", ec.ge_good_to_bad);
      ec.ge_bad_to_good = e->get_double("ge_bad_to_good", ec.ge_bad_to_good);
      ec.ge_drop_good = e->get_double("ge_drop_good", ec.ge_drop_good);
      ec.ge_drop_bad = e->get_double("ge_drop_bad", ec.ge_drop_bad);
    }
  }

  spec.fault_seed = doc.get_u64("fault_seed", spec.fault_seed);
  spec.check_invariants =
      doc.get_bool("check_invariants", spec.check_invariants);
  if (sink.failed) return std::nullopt;
  return spec;
}

std::optional<ScenarioSpec> spec_from_json(const std::string& text,
                                           std::string* err) {
  auto doc = Json::parse(text, err);
  if (!doc) return std::nullopt;
  return spec_from_json_doc(*doc, err);
}

}  // namespace xpass::check
