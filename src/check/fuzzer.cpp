#include "check/fuzzer.hpp"

#include <cstdarg>
#include <filesystem>

#include "check/spec_json.hpp"
#include "exec/sweep_runner.hpp"

namespace xpass::check {

namespace {

using runner::ScenarioSpec;

struct Injection {
  std::string_view name;
  std::string_view description;
  void (*apply)(ScenarioSpec&);
};

core::ExpressPassConfig xp_config(const ScenarioSpec& s) {
  return s.xp ? *s.xp : core::ExpressPassConfig{};
}

// Each entry models one "mechanism silently disabled / constant mis-wired"
// bug by mutating the executed spec behind the oracles' backs.
const Injection kInjections[] = {
    {"no-jitter",
     "disable credit pacing jitter and credit-size randomization (the §3.1 "
     "switch-synchronization fixes) — synchronized credit streams make the "
     "fabric drop data; caught by the invariants/maxmin-diff oracles",
     [](ScenarioSpec& s) {
       auto xp = xp_config(s);
       xp.jitter = 0.0;
       xp.randomize_credit_size = false;
       s.xp = xp;
       // The host NIC shaper noise breaks synchronization the same way
       // (Fig 6b); a real no-jitter bug loses both.
       s.topology.host_credit_shaper_noise = 0.0;
     }},
    {"naive-feedback",
     "run the naive max-rate credit scheme while claiming the Algorithm-1 "
     "feedback loop (§2's strawman) — multi-hop shares collapse; caught by "
     "the maxmin-diff differential oracle on chain topologies",
     [](ScenarioSpec& s) {
       auto xp = xp_config(s);
       xp.naive = true;
       s.xp = xp;
     }},
    {"starved-reservation",
     "cap the credit schedule's max rate to ~1% of the host line rate — the "
     "observable effect of losing the §4.3 minimum credit-rate reservation "
     "on a shared fabric: reactive cross-traffic takes the bottleneck and "
     "the ExpressPass groups collapse; caught by the coexistence oracle on "
     "mixed-protocol specs",
     [](ScenarioSpec& s) {
       auto xp = xp_config(s);
       xp.max_rate_bps = 0.01 * s.topology.host_rate_bps;
       s.xp = xp;
     }},
    {"silent-data-loss",
     "a marginal link drops ~1 in 500 data frames while the declared model "
     "says the fabric is healthy — violates the paper's zero-data-loss "
     "property; caught by the zero-data-loss oracle",
     [](ScenarioSpec& s) {
       s.faults.errors.data_drop = 2e-3;
       if (s.fault_seed == 0) {
         // Deterministic but decorrelated from the traffic stream.
         s.fault_seed = s.seed ^ 0x517cc1b727220a95ull;
       }
     }},
};

void log_line(std::FILE* log, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));
void log_line(std::FILE* log, const char* fmt, ...) {
  if (log == nullptr) return;
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(log, fmt, ap);
  va_end(ap);
  std::fputc('\n', log);
  std::fflush(log);
}

std::string write_repro(const FuzzFailure& f, const FuzzOptions& opts) {
  std::error_code ec;
  std::filesystem::create_directories(opts.out_dir, ec);
  const std::string path = opts.out_dir + "/repro_" +
                           std::to_string(f.index) + "_" + f.oracle + ".json";
  const std::string doc = repro_to_json(f, opts.seed, opts.inject);
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return {};
  std::fwrite(doc.data(), 1, doc.size(), out);
  std::fclose(out);
  return path;
}

}  // namespace

std::vector<InjectionInfo> injections() {
  std::vector<InjectionInfo> out;
  for (const Injection& i : kInjections) {
    out.push_back({i.name, i.description});
  }
  return out;
}

bool apply_injection(std::string_view name, ScenarioSpec& spec) {
  if (name.empty()) return true;
  for (const Injection& i : kInjections) {
    if (i.name == name) {
      i.apply(spec);
      return true;
    }
  }
  return false;
}

FuzzReport run_fuzz(const FuzzOptions& opts, std::FILE* log) {
  FuzzReport report;
  runner::ScenarioEngine engine;
  const OracleSuite suite(opts.oracles);

  const RunFn run = [&](const ScenarioSpec& declared) {
    ScenarioSpec executed = declared;
    apply_injection(opts.inject, executed);
    ++report.engine_runs;
    return engine.run(executed);
  };

  for (size_t i = 0; i < opts.count; ++i) {
    sim::Rng rng(exec::task_seed(opts.seed, i));
    const ScenarioSpec spec = generate_spec(rng, i, opts.gen);
    const auto findings = suite.evaluate(spec, run);
    ++report.scenarios;

    const OracleFinding* failed = nullptr;
    for (const OracleFinding& f : findings) {
      if (!f.pass) {
        failed = &f;
        break;
      }
    }
    if (failed == nullptr) {
      if (opts.verbose) {
        log_line(log, "[%zu] %s seed=%llu ok (%zu oracles)", i,
                 spec.name.c_str(), (unsigned long long)spec.seed,
                 findings.size());
      }
      continue;
    }

    log_line(log, "[%zu] %s seed=%llu FAIL oracle=%s: %s", i,
             spec.name.c_str(), (unsigned long long)spec.seed,
             failed->oracle.c_str(), failed->details.c_str());

    FuzzFailure failure;
    failure.index = i;
    failure.oracle = failed->oracle;
    failure.details = failed->details;
    failure.spec = spec;
    failure.flows_before = spec.traffic.flows;
    if (opts.shrink) {
      const ShrinkOutcome sh =
          shrink_spec(spec, failed->oracle, suite, run, opts.shrink_opts);
      failure.spec = sh.spec;
      if (!sh.details.empty()) failure.details = sh.details;
      log_line(log,
               "[%zu]   shrunk: %zu flows -> %zu flows, scale %zu, "
               "%zu steps / %zu checks",
               i, failure.flows_before, failure.spec.traffic.flows,
               failure.spec.topology.scale, sh.accepted, sh.checks);
    }
    if (!opts.out_dir.empty()) {
      failure.repro_path = write_repro(failure, opts);
      if (!failure.repro_path.empty()) {
        log_line(log, "[%zu]   repro: %s", i, failure.repro_path.c_str());
      }
    }
    report.failures.push_back(std::move(failure));
  }
  return report;
}

std::string repro_to_json(const FuzzFailure& f, uint64_t fuzz_seed,
                          const std::string& inject) {
  Json doc = Json::object();
  doc.set("schema", Json::str(std::string(kReproSchema)));
  doc.set("oracle", Json::str(f.oracle));
  doc.set("details", Json::str(f.details));
  doc.set("inject", Json::str(inject));
  doc.set("fuzz_seed", Json::u64(fuzz_seed));
  doc.set("index", Json::u64(f.index));
  doc.set("cli", Json::str("fuzz_scenarios --repro <this file>"));
  doc.set("spec", spec_to_json_doc(f.spec));
  return doc.dump(2) + "\n";
}

std::optional<ReproCase> repro_from_json(const std::string& text,
                                         std::string* err) {
  auto doc = Json::parse(text, err);
  if (!doc) return std::nullopt;
  ReproCase out;
  const std::string schema = doc->get_string("schema", "");
  if (schema == kReproSchema) {
    const Json* spec = doc->find("spec");
    if (spec == nullptr) {
      if (err != nullptr) *err = "repro document has no \"spec\" member";
      return std::nullopt;
    }
    auto parsed = spec_from_json_doc(*spec, err);
    if (!parsed) return std::nullopt;
    out.spec = std::move(*parsed);
    out.inject = doc->get_string("inject", "");
    out.oracle = doc->get_string("oracle", "");
    return out;
  }
  // Bare scenario document.
  auto parsed = spec_from_json_doc(*doc, err);
  if (!parsed) return std::nullopt;
  out.spec = std::move(*parsed);
  return out;
}

}  // namespace xpass::check
