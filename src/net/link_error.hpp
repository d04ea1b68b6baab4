// Per-link packet error models for fault injection.
//
// Two layers compose, rolled once per frame as it finishes crossing the
// wire: a Gilbert-Elliott two-state chain for bursty loss (the classic model
// for flaky optics / marginal cables), then independent Bernoulli drop and
// bit-corruption rolls split by packet class — the paper's feedback loop
// reacts very differently to credit loss (its congestion signal, §3.2) than
// to data loss (which must be recovered end-to-end), so fault scenarios need
// to dose them separately.
//
// "Corruption" is an FCS-breaking bit flip: the frame is delivered with
// Packet::corrupted set, still consuming link bandwidth and buffer space,
// and the receiving host discards it on checksum. "Drop" loses the frame at
// the link itself (cut cable, overwhelmed SerDes).
//
// Each LinkError owns a private PRNG so fault noise never perturbs the
// simulation's traffic stream: runs with and without an error model on some
// far-away link stay comparable packet-for-packet until a fault actually
// hits.
#pragma once

#include "net/packet.hpp"
#include "sim/random.hpp"

namespace xpass::net {

struct LinkErrorConfig {
  // Independent per-frame probabilities. `data` covers every non-credit
  // frame (data, SYN, CREDIT_STOP, ACKs): they all ride the data queue.
  double data_drop = 0.0;
  double credit_drop = 0.0;
  double data_corrupt = 0.0;
  double credit_corrupt = 0.0;
  // Gilbert-Elliott overlay, applied to every class. Transition
  // probabilities are per frame observed on the link; ge_good_to_bad == 0
  // disables the chain.
  double ge_good_to_bad = 0.0;
  double ge_bad_to_good = 0.2;
  double ge_drop_good = 0.0;
  double ge_drop_bad = 0.5;

  bool enabled() const {
    return data_drop > 0.0 || credit_drop > 0.0 || data_corrupt > 0.0 ||
           credit_corrupt > 0.0 || ge_good_to_bad > 0.0;
  }
};

class LinkError {
 public:
  enum class Outcome { kDeliver, kDrop, kCorrupt };

  LinkError(const LinkErrorConfig& cfg, uint64_t seed)
      : cfg_(cfg), rng_(seed) {}

  // Rolls the frame's fate. Does not mutate the packet; the caller applies
  // the outcome (and must not re-roll the same frame).
  Outcome roll(const Packet& p);

  const LinkErrorConfig& config() const { return cfg_; }

 private:
  LinkErrorConfig cfg_;
  sim::Rng rng_;
  bool bad_ = false;  // Gilbert-Elliott state
};

}  // namespace xpass::net
