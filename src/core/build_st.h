// Build ST (paper Section 4.2): spanning-tree construction with FindAny-C.
//
// The Boruvka skeleton of Build MST with two modifications. First,
// FindAny-C replaces FindMin-C, saving a log n / log log n factor. Second,
// because the graph is (effectively) unweighted, the edges chosen by the
// fragments of one phase can close one cycle per merged component; the
// cycle is detected by re-running leader election (the echoes stall exactly
// at the cycle nodes), broken by the randomized unmark protocol, and -- if
// the coin flips all disagree -- removed wholesale (every cycle node
// unmarks its two cycle edges locally, a timeout decision costing no
// messages). Total cost O(n log n) messages and time w.h.p. (Lemma 6).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/find_any.h"
#include "graph/forest.h"
#include "proto/tree_ops.h"
#include "sim/network.h"

namespace kkt::core {

// Runs phases until the forest spans, at most the paper's O(lg n) budget
// (with FindAny-C's conservative 1/16 success constant).
struct BuildStConfig {
  int c = 2;
};

struct StPhaseInfo {
  std::size_t fragments = 0;
  std::size_t merges = 0;
  std::size_t cycles_detected = 0;
  std::size_t cycles_hard_reset = 0;  // cycles removed wholesale
  std::uint64_t messages = 0;
  std::uint64_t max_rounds = 0;
};

struct BuildStStats {
  std::size_t phases = 0;
  bool spanning = false;
  std::vector<StPhaseInfo> per_phase;
};

// Constructs a spanning forest of net.graph() into `forest` (must start
// empty). Edge weights are ignored (the ST problem is unweighted).
BuildStStats build_st(sim::Network& net, graph::MarkedForest& forest,
                      const BuildStConfig& cfg = {});

// Resolves one potential cycle in a merged component (Section 4.2): leader
// election detects it (stalled echoes), the randomized unmark protocol
// breaks it, and if every coin disagreed a second election confirms and the
// cycle is removed wholesale by local timeout decisions. Used by Build ST
// after each phase and by the batched ST repair extension.
// Returns {cycle_detected, hard_reset}.
std::pair<bool, bool> resolve_st_cycle(sim::Network& net,
                                       graph::MarkedForest& forest,
                                       proto::TreeOps& ops,
                                       std::span<const graph::NodeId> nodes);

}  // namespace kkt::core
