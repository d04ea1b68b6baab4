// Seeded random-but-valid ScenarioSpec sampling for the fuzzer.
//
// Every generated spec is small enough to simulate in well under a second
// (flows <= max_flows, horizons of tens of milliseconds) yet ranges over the
// axes the paper's claims quantify across: topology shape and scale, link
// speeds and delays, protocol, traffic mix, and fault plans. Generation is a
// pure function of the Rng stream, so `fuzz_scenarios --seed S` reproduces
// the exact scenario sequence — scenario i is generated from
// exec::task_seed(S, i), independent of every other scenario.
#pragma once

#include "runner/scenario.hpp"
#include "sim/random.hpp"

namespace xpass::check {

struct GenOptions {
  // Cap on traffic.flows (pairwise count / incast fan-in / poisson flows).
  size_t max_flows = 16;
  // Sample fault plans (flaps, kills, per-frame error models) on ~1/4 of
  // the specs. Off: every spec is fault-free (pure-property hunting).
  bool faults = true;
  // Restrict to one protocol (the fuzz CLI's --protocol). Unset: weighted
  // sampling, ExpressPass-heavy — it is the system under test; the
  // comparators mostly exercise engine-level oracles (determinism,
  // relabeling).
  std::optional<runner::Protocol> protocol;
  // Restrict to one topology kind. Unset: weighted sampling (forced-mixed
  // runs pin the dumbbell).
  std::optional<runner::TopologyKind> topology;
  // Force mixed-protocol coexistence specs (the fuzz CLI's --mixed): every
  // spec is an ExpressPass dumbbell sharing its bottleneck with 1-2
  // reactive cross-traffic flow groups, which arms the coexistence oracle.
  // Unset: ~15% of ExpressPass dumbbell specs sample mixed anyway.
  bool mixed = false;
};

// Samples one spec from `rng`. `name_index` only labels spec.name
// ("fuzz/<index>/<topology>"); it never influences the sampled values.
runner::ScenarioSpec generate_spec(sim::Rng& rng, uint64_t name_index,
                                   const GenOptions& opts = {});

}  // namespace xpass::check
