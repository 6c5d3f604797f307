// Asynchronous network: messages are eventually delivered, after an
// adversarially variable (here: random, seeded) delay. Used by the
// impromptu-repair algorithms of Theorem 1.2, which the paper states for
// asynchronous communication.
//
// A thin RandomDelayPolicy instantiation of Network: each send draws an
// integer delay in [1, max_delay] from a seed-derived stream; the shared
// timing wheel delivers in timestamp order (ties broken by send order,
// making runs deterministic).
#pragma once

#include <cstdint>
#include <memory>

#include "sim/network.h"

namespace kkt::sim {

class AsyncNetwork final : public Network {
 public:
  struct Config {
    // Delays are drawn uniformly from [1, max_delay]; 0 acts as 1.
    std::uint64_t max_delay;
    constexpr Config(std::uint64_t max_delay_ = 16) noexcept
        : max_delay(max_delay_) {}
  };

  explicit AsyncNetwork(const graph::Graph& g, std::uint64_t seed = 1,
                        Config cfg = {})
      : Network(g, seed,
                std::make_unique<RandomDelayPolicy>(seed, cfg.max_delay)) {}
};

}  // namespace kkt::sim
