// Adversarial network: seeded-but-hostile delivery schedules for
// schedule-diversity experiments. A thin AdversarialPolicy instantiation of
// Network: per-edge delay bounds and bounded reordering jitter (see
// sim/delivery_policy.h for the knobs). Every send is still delivered once.
//
// Everything stays deterministic given the seed, so a schedule that breaks
// a protocol is a replayable counterexample, not a flake.
#pragma once

#include <cstdint>
#include <memory>

#include "sim/network.h"

namespace kkt::sim {

class AdversarialNetwork final : public Network {
 public:
  using Config = AdversarialConfig;

  explicit AdversarialNetwork(const graph::Graph& g, std::uint64_t seed = 1,
                              Config cfg = {})
      : Network(g, seed, std::make_unique<AdversarialPolicy>(seed, cfg)) {}

  // The policy, typed: tighten per-edge bounds before an experiment.
  AdversarialPolicy& adversary() noexcept {
    return static_cast<AdversarialPolicy&>(policy());
  }
};

}  // namespace kkt::sim
