// The delivery schedule: when does a sent message arrive?
//
// The Network owns the mechanism -- a timing wheel drained in (delivery
// time, send sequence) order -- and asks its DeliveryPolicy, a plain value,
// for each send's delivery timestamp. Every schedule the simulator runs is
// one member of a single family: a delay drawn uniformly from
// [min_delay, max_delay], plus a reordering jitter drawn from
// [0, reorder_window]. Links are reliable under every schedule: each send
// is delivered exactly once, as in both of the paper's models, so the
// schedule chooses *when* a message arrives, never *whether*. This
// separates cost accounting, which is identical across transports, from
// schedule shape, which is the experiment variable:
//
//   sync()        -- the synchronous CONGEST model: a global clock; every
//                    message sent in round r arrives at r+1. Horizon 1.
//   async(d)      -- the benign asynchronous model: each message draws an
//                    independent uniform delay in [1, d]. Horizon d.
//   adversarial() -- schedule-diversity experiments: delay bounds
//                    [min, max] and bounded reordering jitter. Horizon
//                    max + reorder_window.
//
// A schedule whose bounds fix the delay (min == max, no jitter) hands out
// now + min without a draw; every other send draws the delay, then the
// jitter, in send order. The draw stream is seeded by the Network from its
// own seed and the schedule's salt, so every schedule a test or bench
// explores is replayable: a copy of the value taken before a run, asked
// once per send in send order, reproduces the run's timestamps.
#pragma once

#include <algorithm>
#include <cstdint>

#include "util/rng.h"

namespace kkt::sim {

struct AsyncConfig {
  // Delays are drawn uniformly from [1, max_delay]; 0 acts as 1.
  std::uint64_t max_delay;
  constexpr AsyncConfig(std::uint64_t max_delay_ = 16) noexcept
      : max_delay(max_delay_) {}
};

struct AdversarialConfig {
  // Per-message delay bounds. A min_delay of 0 acts as 1 (no zero-latency
  // links), and a max_delay below min_delay acts as min_delay.
  std::uint64_t min_delay = 1;
  std::uint64_t max_delay = 8;
  // Extra jitter in [0, reorder_window] added on top of the delay: bounds
  // how far the adversary may reorder messages relative to their send
  // order. 0 disables the extra reordering.
  std::uint64_t reorder_window = 4;
};

class DeliveryPolicy {
 public:
  static DeliveryPolicy sync() noexcept { return DeliveryPolicy(1, 1, 0, 0); }
  static DeliveryPolicy async(std::uint64_t max_delay) noexcept {
    return DeliveryPolicy(1, max_delay, 0, 0xa57);
  }
  static DeliveryPolicy adversarial(const AdversarialConfig& cfg) noexcept {
    return DeliveryPolicy(cfg.min_delay, cfg.max_delay, cfg.reorder_window,
                          0xadf5);
  }

  // Restarts the draw stream from `seed` mixed with the schedule's salt.
  void reseed(std::uint64_t seed) noexcept {
    rng_ = util::Rng(util::mix_seeds(seed, salt_));
  }

  // Delivery timestamp for a message sent at virtual time `now`; lies in
  // [now + min_delay, now + horizon()].
  std::uint64_t delivery_time(std::uint64_t now) noexcept {
    if (min_delay_ == max_delay_ && reorder_window_ == 0) {
      return now + min_delay_;
    }
    std::uint64_t at = now + rng_.range(min_delay_, max_delay_);
    if (reorder_window_ > 0) at += rng_.below(reorder_window_ + 1);
    return at;
  }

  std::uint64_t max_delay() const noexcept { return max_delay_; }
  std::uint64_t reorder_window() const noexcept { return reorder_window_; }
  // The largest delay delivery_time hands out (the Network checks that it
  // does not overflow).
  std::uint64_t horizon() const noexcept {
    return max_delay_ + reorder_window_;
  }

 private:
  DeliveryPolicy(std::uint64_t min_delay, std::uint64_t max_delay,
                 std::uint64_t reorder_window, std::uint64_t salt) noexcept
      : min_delay_(std::max<std::uint64_t>(min_delay, 1)),
        max_delay_(std::max(max_delay, min_delay_)),
        reorder_window_(reorder_window),
        salt_(salt) {}

  std::uint64_t min_delay_;
  std::uint64_t max_delay_;
  std::uint64_t reorder_window_;
  std::uint64_t salt_;  // keeps each schedule's stream apart per seed
  util::Rng rng_;       // delay + jitter draws
};

}  // namespace kkt::sim
