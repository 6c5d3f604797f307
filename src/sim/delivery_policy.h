// Pluggable transport policies: when does a sent message arrive?
//
// The Network owns the mechanism -- a timing wheel drained in (delivery
// time, send sequence) order -- and delegates the *schedule* to a
// DeliveryPolicy. The policy sees each send (endpoints and current virtual
// time) and answers with a delivery timestamp. It also states its horizon,
// max_delay(): no timestamp it hands out lies more than that far after the
// send, which sizes the wheel. Links are reliable under every policy: each
// send is delivered exactly once, as in both of the paper's models, so a
// policy chooses *when* a message arrives, never *whether*. This separates
// cost accounting, which is identical across transports, from schedule
// shape, which is the experiment variable:
//
//   FifoSyncPolicy    -- the synchronous CONGEST model: a global clock;
//                        every message sent in round r arrives at r+1.
//                        Horizon 1.
//   RandomDelayPolicy -- the benign asynchronous model: each message draws
//                        an independent uniform delay in [1, max_delay].
//                        Horizon max_delay.
//   AdversarialPolicy -- schedule-diversity experiments: per-edge delay
//                        bounds and bounded reordering jitter. Horizon:
//                        the widest delay bound plus the jitter window.
//
// All policies are deterministic given their seed, so every schedule a test
// or bench explores is replayable.
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "graph/types.h"
#include "util/rng.h"

namespace kkt::sim {

using graph::NodeId;

class DeliveryPolicy {
 public:
  virtual ~DeliveryPolicy() = default;

  // Called at the start of every Network::run, before any on_start sends.
  virtual void begin_op() {}

  // Delivery timestamp for a message sent along {from, to} at virtual time
  // `now`. Must lie in (now, now + max_delay()]: no zero-latency edges, and
  // nothing past the horizon (the Network aborts on either).
  virtual std::uint64_t delivery_time(NodeId from, NodeId to,
                                      std::uint64_t now) = 0;

  // The horizon: an upper bound on delivery_time(from, to, now) - now over
  // every send until the policy is next reconfigured. At least 1.
  // Network::run reads it once, when the run starts, and sizes the timing
  // wheel to bit_ceil(horizon + 1) buckets.
  virtual std::uint64_t max_delay() const noexcept = 0;

  // True promises that delivery_time(from, to, now) == now + 1 for every
  // send (so max_delay() is 1). The Network then skips that virtual call on
  // every send; the schedule is the one the calls would have produced.
  virtual bool unit_delay() const noexcept { return false; }
};

// Synchronous CONGEST rounds: arrive exactly one time unit after sending,
// FIFO within the round (the queue's send-sequence tie-break).
class FifoSyncPolicy final : public DeliveryPolicy {
 public:
  std::uint64_t delivery_time(NodeId, NodeId, std::uint64_t now) override {
    return now + 1;
  }

  std::uint64_t max_delay() const noexcept override { return 1; }
  bool unit_delay() const noexcept override { return true; }
};

// Benign asynchrony: independent uniform delays in [1, max_delay], drawn
// from a stream derived from the network seed (one draw per send, in send
// order, so schedules are reproducible). A max_delay of 0 is clamped to 1,
// the minimum the model allows, as AdversarialPolicy clamps its bounds.
class RandomDelayPolicy final : public DeliveryPolicy {
 public:
  RandomDelayPolicy(std::uint64_t seed, std::uint64_t max_delay)
      : rng_(util::mix_seeds(seed, 0xa57)),
        max_delay_(std::max<std::uint64_t>(max_delay, 1)) {}

  std::uint64_t delivery_time(NodeId, NodeId, std::uint64_t now) override {
    return now + rng_.range(1, max_delay_);
  }

  std::uint64_t max_delay() const noexcept override { return max_delay_; }

 private:
  util::Rng rng_;
  std::uint64_t max_delay_;
};

struct AdversarialConfig {
  // Default per-message delay bounds; individual edges may override via
  // AdversarialPolicy::set_edge_bounds.
  std::uint64_t min_delay = 1;
  std::uint64_t max_delay = 8;
  // Extra jitter in [0, reorder_window] added on top of the delay: bounds
  // how far the adversary may reorder messages relative to their send
  // order. 0 disables the extra reordering.
  std::uint64_t reorder_window = 4;
};

// Adversarial (but seeded, hence replayable) schedules: per-edge delay
// bounds and bounded reordering.
class AdversarialPolicy final : public DeliveryPolicy {
 public:
  AdversarialPolicy(std::uint64_t seed, AdversarialConfig cfg = {})
      : rng_(util::mix_seeds(seed, 0xadf5)), cfg_(cfg) {}

  // Override the delay bounds of the single edge {u, v} (both directions).
  void set_edge_bounds(NodeId u, NodeId v, std::uint64_t min_delay,
                       std::uint64_t max_delay) {
    const std::uint64_t key = edge_key(u, v);
    const auto it = std::lower_bound(
        edge_bounds_.begin(), edge_bounds_.end(), key,
        [](const auto& entry, std::uint64_t k) { return entry.first < k; });
    if (it != edge_bounds_.end() && it->first == key) {
      it->second = {min_delay, max_delay};
    } else {
      edge_bounds_.insert(it, {key, Bounds{min_delay, max_delay}});
    }
  }

  std::uint64_t delivery_time(NodeId from, NodeId to,
                              std::uint64_t now) override {
    std::uint64_t lo = cfg_.min_delay, hi = cfg_.max_delay;
    if (!edge_bounds_.empty()) {
      const std::uint64_t key = edge_key(from, to);
      const auto it = std::lower_bound(
          edge_bounds_.begin(), edge_bounds_.end(), key,
          [](const auto& entry, std::uint64_t k) {
            return entry.first < k;
          });
      if (it != edge_bounds_.end() && it->first == key) {
        lo = it->second.min_delay;
        hi = it->second.max_delay;
      }
    }
    // Zero-delay bounds would break the delivery contract (strictly after
    // `now`); clamp to the minimum one time unit the model allows.
    if (lo < 1) lo = 1;
    if (hi < lo) hi = lo;
    std::uint64_t at = now + rng_.range(lo, hi);
    if (cfg_.reorder_window > 0) at += rng_.below(cfg_.reorder_window + 1);
    return at;
  }

  // The widest delay bound, default or per-edge, clamped as delivery_time
  // clamps it, plus the jitter window. Widening a bound between runs
  // widens the horizon of the next run.
  std::uint64_t max_delay() const noexcept override {
    std::uint64_t hi = clamped_max(cfg_.min_delay, cfg_.max_delay);
    for (const auto& entry : edge_bounds_) {
      hi = std::max(hi, clamped_max(entry.second.min_delay,
                                    entry.second.max_delay));
    }
    return hi + cfg_.reorder_window;
  }

  const AdversarialConfig& config() const noexcept { return cfg_; }

 private:
  struct Bounds {
    std::uint64_t min_delay;
    std::uint64_t max_delay;
  };

  // The largest delay delivery_time draws from bounds [lo, hi].
  static std::uint64_t clamped_max(std::uint64_t lo,
                                   std::uint64_t hi) noexcept {
    return std::max({lo, hi, std::uint64_t{1}});
  }

  static std::uint64_t edge_key(NodeId u, NodeId v) noexcept {
    if (u > v) {
      const NodeId t = u;
      u = v;
      v = t;
    }
    return (static_cast<std::uint64_t>(u) << 32) | v;
  }

  util::Rng rng_;  // delay + reorder draws
  AdversarialConfig cfg_;
  // Sorted flat map keyed by edge_key: lookup order (and, unlike a hash
  // map, iteration order -- should anyone add it) is value-determined,
  // never allocation- or implementation-determined. The override set is
  // tiny, so binary search beats hashing here anyway.
  std::vector<std::pair<std::uint64_t, Bounds>> edge_bounds_;
};

}  // namespace kkt::sim
