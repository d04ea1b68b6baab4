// Credit feedback control — Algorithm 1 of the paper, verbatim.
//
// Binary-increase toward the max credit rate with an adaptive
// aggressiveness factor w: on low credit loss (<= target_loss) the rate
// moves toward C = max_rate*(1+target_loss) by weight w (and w itself climbs
// back toward w_max after two consecutive increases); on high loss the rate
// is cut to the goodput that actually passed the bottleneck, inflated by the
// target, and w halves (floored at w_min). §4 proves rates converge to C/N
// with oscillation bounded by D* = C*w_min*(1-1/N).
#pragma once

#include <algorithm>

namespace xpass::core {

struct FeedbackParams {
  double max_rate = 0.0;    // max credit rate for the link (bps equivalent)
  double init_rate = 0.0;   // alpha * max_rate
  double w_init = 0.5;
  double w_min = 0.01;
  double w_max = 0.5;
  double target_loss = 0.1;
};

class CreditFeedback {
 public:
  explicit CreditFeedback(const FeedbackParams& p)
      : p_(p), w_(p.w_init), rate_(p.init_rate) {}

  // One update period elapsed with the given measured credit loss fraction;
  // returns the new credit sending rate.
  double update(double credit_loss) {
    if (credit_loss <= p_.target_loss) {
      if (prev_increasing_) w_ = (w_ + p_.w_max) / 2.0;
      rate_ = (1.0 - w_) * rate_ +
              w_ * p_.max_rate * (1.0 + p_.target_loss);
      prev_increasing_ = true;
    } else {
      rate_ = rate_ * (1.0 - credit_loss) * (1.0 + p_.target_loss);
      w_ = std::max(w_ / 2.0, p_.w_min);
      prev_increasing_ = false;
    }
    rate_ = std::clamp(rate_, min_rate(), p_.max_rate * (1.0 + p_.target_loss));
    return rate_;
  }

  double rate() const { return rate_; }
  double w() const { return w_; }
  bool increasing() const { return prev_increasing_; }
  const FeedbackParams& params() const { return p_; }

 private:
  // Keep at least a trickle of credits so a throttled flow can still probe.
  double min_rate() const { return p_.max_rate / 10000.0; }

  FeedbackParams p_;
  double w_;
  double rate_;
  bool prev_increasing_ = false;
};

}  // namespace xpass::core
