// Synchronous GHS-style baseline MST (Gallager-Humblet-Spira 1983).
//
// The Omega(m)-message comparator the paper's headline result is measured
// against. We implement the controlled (synchronous, phase-by-phase)
// variant of GHS:
//   * per phase, every fragment elects a leader (same election protocol as
//     the KKT algorithms) whose announcement doubles as the fragment-ID
//     broadcast;
//   * each node probes its incident non-tree edges in weight order with
//     Test messages; the peer answers Accept/Reject by comparing fragment
//     IDs frozen at phase start. A rejected edge (both endpoints in one
//     fragment) is remembered and never probed again -- the classic
//     amortization that gives GHS its O(m + n log n) message bound;
//   * local minima converge up the fragment tree; the leader announces the
//     fragment's minimum outgoing edge and the Add-Edge handshake marks it.
//
// Substitution note (DESIGN.md): the original GHS merges fragments with a
// level/core-edge protocol; the controlled variant reaches the same
// O(m + n log n) message complexity with the synchronized phases already
// used by Build MST, which keeps the two systems comparable apples-to-
// apples. The per-node "rejected" bits are exactly the state the paper
// contrasts with impromptu repair.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/forest.h"
#include "sim/network.h"

namespace kkt::baseline {

struct GhsPhaseInfo {
  std::size_t fragments = 0;
  std::uint64_t messages = 0;
};

struct GhsStats {
  std::size_t phases = 0;
  bool spanning = false;
  std::vector<GhsPhaseInfo> per_phase;
};

// Builds the minimum spanning forest of net.graph() into `forest` (which
// must start empty) in at most 2*ceil(lg n) + 4 phases. Deterministic.
GhsStats ghs_build_mst(sim::Network& net, graph::MarkedForest& forest);

}  // namespace kkt::baseline
