// Build MST (paper Section 3.3): synchronous Boruvka over fragments.
//
// Per phase, per fragment: median-based leader election, FindMin-C from the
// leader, then the Add-Edge handshake over the returned minimum leaving
// edge. Because augmented weights are distinct, the chosen edges never close
// a cycle and every chosen edge belongs to the MST. O(log n) phases suffice
// w.h.p. (Lemma 3), for O(n log^2 n / log log n) messages and time total.
//
// Phase semantics: fragments are the connected components of edges marked
// in earlier phases (epoch < i); edges marked during phase i join the tree
// structure only from phase i+1 -- the paper's step (d), in which Add-Edge
// messages are absorbed while nodes wait out the phase clock. Fragment
// operations run logically in parallel: messages sum, elapsed rounds count
// as the maximum over fragments (sim::ParallelPhase).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/find_min.h"
#include "graph/forest.h"
#include "sim/network.h"

namespace kkt::core {

// Runs phases until the forest spans, at most the paper's (40c/C) lg n.
struct BuildMstConfig {
  // FindMin slice width and failure exponent.
  int w = 64;
  int c = 2;
};

struct PhaseInfo {
  std::size_t fragments = 0;       // fragments at phase start
  std::size_t merges = 0;          // Add-Edge handshakes that completed
  std::uint64_t messages = 0;      // messages spent in this phase
  std::uint64_t max_rounds = 0;    // elapsed time of the phase (max branch)
};

struct BuildStats {
  std::size_t phases = 0;
  bool spanning = false;
  std::vector<PhaseInfo> per_phase;
};

// Constructs the minimum spanning forest of net.graph() into `forest`
// (which must start empty). Returns per-phase statistics; message/round
// totals accumulate in net.metrics().
BuildStats build_mst(sim::Network& net, graph::MarkedForest& forest,
                     const BuildMstConfig& cfg = {});

}  // namespace kkt::core
