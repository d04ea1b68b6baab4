// The traced run of a benchmark workload: per-layer time, work and
// allocation counts.
//
//   xpass_benchmark_traced --out DIR --seed N --trace-file PATH SPEC...
//
// Takes the same specs as xpass_benchmark, but drives each one through
// compose() (every layer call under a span) instead of the engine. Several
// specs run as a campaign whose RunSpecFn hook is compose(), followed by a
// warm resume pass. Recorder JSONs go to DIR like the timed rep's, so
// benchmark/run.py can check that the composition reproduced the engine.
// Spans go to PATH in Chrome trace format; the last stdout line is a JSON
// object with the per-layer metrics.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "bench_io.hpp"
#include "check/json.hpp"
#include "compose.hpp"
#include "exec/campaign.hpp"

namespace {

using namespace xpass;
using benchmark::now_sec;
using benchmark::ScopedSpan;
using benchmark::Tracer;

// Room for every span of the largest workload (1 ms slices of each run).
constexpr size_t kSpanCapacity = size_t{1} << 18;

struct Options {
  std::string out;
  std::string trace_file;
  uint64_t seed = 0;
  bool have_seed = false;
  std::vector<std::string> specs;
};

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::runtime_error(a + " needs a value");
      return argv[++i];
    };
    if (a == "--out") {
      o.out = value();
    } else if (a == "--trace-file") {
      o.trace_file = value();
    } else if (a == "--seed") {
      o.seed = std::stoull(value());
      o.have_seed = true;
    } else if (a.rfind("--", 0) == 0) {
      throw std::runtime_error("unknown flag " + a);
    } else {
      o.specs.push_back(a);
    }
  }
  if (o.out.empty() || o.trace_file.empty() || !o.have_seed ||
      o.specs.empty()) {
    throw std::runtime_error(
        "usage: xpass_benchmark_traced --out DIR --seed N --trace-file PATH "
        "SPEC...");
  }
  return o;
}

struct Task {
  benchmark::Composed composed;
  std::string payload;  // recorder JSON
};

// Runs one composed task on a thread of its own. The packet pool is per
// thread and keeps its slabs, so a fresh thread makes every task's
// allocation count independent of which tasks ran before it.
Task run_task(const runner::ScenarioSpec& spec, Tracer& tracer, uint32_t run) {
  Task t;
  std::exception_ptr error;
  std::thread worker([&] {
    try {
      ScopedSpan task(tracer, "exec.task", run);
      t.composed = benchmark::compose(spec, tracer, run);
      ScopedSpan emit(tracer, "stats.emit", run);
      const runner::ScenarioResult& r = t.composed.result;
      t.payload = r.recorder.to_json(r.name);
    } catch (...) {
      error = std::current_exception();
    }
  });
  worker.join();
  if (error) std::rethrow_exception(error);
  return t;
}

int run(const Options& o) {
  std::filesystem::create_directories(o.out);
  Tracer tracer(kSpanCapacity);
  benchmark::Counters work;
  double json_bytes = 0;
  check::Json doc = check::Json::object();

  const double t0 = now_sec();
  std::vector<runner::ScenarioSpec> specs;
  std::map<std::string, uint32_t> run_of;
  for (size_t i = 0; i < o.specs.size(); ++i) {
    const uint32_t run = static_cast<uint32_t>(i);
    ScopedSpan s(tracer, "check.spec_from_json", run);
    specs.push_back(benchmark::parse_spec(
        benchmark::read_file(o.specs[i]), o.specs[i],
        benchmark::spec_seed(o.seed, i, o.specs.size())));
    run_of[specs.back().name] = run;
  }
  if (run_of.size() != specs.size()) {
    throw std::runtime_error("spec names must be unique");
  }

  std::vector<std::string> payloads;
  if (specs.size() == 1) {
    Task t = run_task(specs[0], tracer, 0);
    work += t.composed.counters;
    json_bytes = static_cast<double>(t.payload.size());
    payloads.push_back(std::move(t.payload));
  } else {
    // The campaign emits each payload again itself; the hook's emission is
    // what the per-layer stats.emit_s measures.
    std::mutex mu;
    const exec::RunSpecFn hook = [&](const runner::ScenarioSpec& spec,
                                     const runner::RunOverrides&) {
      Task t = run_task(spec, tracer, run_of.at(spec.name));
      const std::lock_guard<std::mutex> lock(mu);
      work += t.composed.counters;
      json_bytes += static_cast<double>(t.payload.size());
      return std::move(t.composed.result);
    };
    const exec::CampaignOptions copts = benchmark::campaign_options(o.out);
    std::filesystem::remove_all(copts.cache_dir);
    exec::CampaignReport cold;
    {
      ScopedSpan s(tracer, "exec.campaign", Tracer::kNone);
      cold = exec::run_campaign(specs, copts, hook);
    }
    for (const exec::CampaignTaskResult& t : cold.tasks) {
      payloads.push_back(t.payload);
    }
    exec::CampaignReport warm;
    {
      ScopedSpan s(tracer, "exec.resume", Tracer::kNone);
      warm = exec::run_campaign(specs, copts, hook);
    }
    doc.set("campaign", benchmark::campaign_check(cold, warm));
  }
  for (size_t i = 0; i < specs.size(); ++i) {
    ScopedSpan s(tracer, "stats.emit", static_cast<uint32_t>(i));
    benchmark::write_file(o.out + "/" + benchmark::output_name(o.specs[i]),
                          payloads[i]);
  }
  const double wall_s = now_sec() - t0;

  const auto totals = tracer.totals();
  const auto total = [&](const char* name) {
    auto it = totals.find(name);
    return it == totals.end() ? Tracer::Total{} : it->second;
  };
  const auto ratio = [](double num, double den) {
    return den > 0 ? num / den : 0.0;
  };
  const double loop_s = total("sim.warmup").sec + total("sim.run_until").sec;
  const double loop_allocs = static_cast<double>(total("sim.run_until").allocs);
  const double events = static_cast<double>(work.events);
  const double flows = static_cast<double>(work.flows);
  const double flow_add_s =
      total("runner.make_transport").sec + total("runner.flow_add").sec;
  double setup_allocs = 0;
  for (const char* name : {"net.build", "runner.make_transport",
                           "workload.gen", "runner.flow_add",
                           "stats.register"}) {
    setup_allocs += static_cast<double>(total(name).allocs);
  }
  const double task_s_sum = total("exec.task").sec;
  const bool campaign = specs.size() > 1;
  const double makespan_s = campaign ? total("exec.campaign").sec : task_s_sum;
  const double jobs =
      campaign ? static_cast<double>(benchmark::kCampaignJobs) : 1.0;

  check::Json m = check::Json::object();
  const auto put = [&](const char* name, double v) {
    m.set(name, check::Json::number(v));
  };
  put("check.parse_s", total("check.spec_from_json").sec);
  put("net.build_s", total("net.build").sec);
  put("net.ports", static_cast<double>(work.ports));
  put("workload.gen_s", total("workload.gen").sec);
  put("runner.flow_add_s", flow_add_s);
  put("runner.setup_allocs", setup_allocs);
  put("sim.loop_s", loop_s);
  put("sim.events", events);
  put("sim.ns_per_event", ratio(loop_s * 1e9, events));
  put("sim.events_per_hop",
      ratio(events, static_cast<double>(work.packet_hops)));
  put("sim.cancelled", static_cast<double>(work.cancelled));
  put("sim.loop_allocs", loop_allocs);
  put("sim.allocs_per_kevent", ratio(loop_allocs * 1e3, events));
  put("sim.pool_slots", static_cast<double>(work.pool_slots));
  put("net.packet_hops", static_cast<double>(work.packet_hops));
  put("net.credit_hop_share",
      ratio(static_cast<double>(work.credit_hops),
            static_cast<double>(work.packet_hops)));
  put("net.credit_drop_ratio",
      ratio(static_cast<double>(work.credit_drops),
            static_cast<double>(work.credits_emitted)));
  put("net.kick_events", static_cast<double>(work.kick_events));
  put("net.retry_events", static_cast<double>(work.retry_events));
  put("core.credit_use_ratio",
      ratio(static_cast<double>(work.credits_used),
            static_cast<double>(work.credits_received)));
  put("transport.flows", flows);
  put("transport.us_per_flow", ratio((flow_add_s + loop_s) * 1e6, flows));
  put("stats.measure_s",
      total("stats.register").sec + total("stats.measure").sec);
  put("stats.emit_s", total("stats.emit").sec);
  put("stats.json_bytes", json_bytes);
  put("exec.task_s_sum", task_s_sum);
  put("exec.makespan_s", makespan_s);
  put("exec.efficiency", ratio(task_s_sum, jobs * makespan_s));
  put("exec.resume_s", total("exec.resume").sec);
  put("exec.hits", campaign ? doc.find("campaign")->get_double("warm_hits", 0)
                            : 0.0);

  tracer.write_chrome_trace(o.trace_file);
  doc.set("wall_s", check::Json::number(wall_s));
  doc.set("dropped_spans", check::Json::u64(tracer.dropped()));
  doc.set("metrics", std::move(m));
  std::printf("%s\n", doc.dump().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "xpass_benchmark_traced: %s\n", e.what());
    return 1;
  }
}
