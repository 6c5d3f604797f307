// Build MST (paper Section 3.3) and Build ST (Section 4.2): synchronous
// Boruvka over fragments, and the one phase they share with batch repair.
//
// The skeleton: per phase, per fragment, median-based leader election, a
// search for a leaving edge from the leader, then the Add-Edge handshake
// over the returned edge. Phase semantics: fragments are the connected
// components of edges marked in earlier phases (epoch < i); edges marked
// during phase i join the tree structure only from phase i+1 -- the paper's
// step (d), in which Add-Edge messages are absorbed while nodes wait out
// the phase clock. Fragment operations run logically in parallel: messages
// sum, elapsed rounds count as the maximum over fragments
// (sim::ParallelPhase).
//
// Build MST searches with FindMin-C. Because augmented weights are
// distinct, the chosen edges never close a cycle and every chosen edge
// belongs to the MST. O(log n) phases suffice w.h.p. (Lemma 3), for
// O(n log^2 n / log log n) messages and time total.
//
// Build ST is the same skeleton with two modifications. First, FindAny-C
// replaces FindMin-C, saving a log n / log log n factor. Second, because
// the graph is (effectively) unweighted, the edges chosen by the fragments
// of one phase can close one cycle per merged component; the cycle is
// detected by re-running leader election (the echoes stall exactly at the
// cycle nodes), broken by the randomized unmark protocol, and -- if the
// coin flips all disagree -- removed wholesale (every cycle node unmarks
// its two cycle edges locally, a timeout decision costing no messages).
// Total cost O(n log n) messages and time w.h.p. (Lemma 6).
//
// Batch repair (DynamicForest::delete_batch) runs the same phase restricted
// to damaged fragments: only a fragment holding a dirty node searches, and
// one whose search comes back empty is clean from then on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/find_any.h"
#include "core/find_min.h"
#include "graph/forest.h"
#include "proto/scratch.h"
#include "sim/network.h"

namespace kkt::core {

// Which invariant the forest satisfies, and so which search a phase runs
// per fragment: FindMin (kMst) or FindAny (kSt).
enum class ForestKind { kMst, kSt };

// Build MST runs phases until the forest spans, at most the paper's
// (40c/C) lg n.
struct BuildMstConfig {
  // FindMin slice width.
  int w = 64;
};

struct PhaseInfo {
  std::size_t fragments = 0;          // fragments at phase start
  std::size_t merges = 0;             // Add-Edge handshakes that completed
  std::size_t cycles_detected = 0;    // kSt: merged components with a cycle
  std::size_t cycles_hard_reset = 0;  // kSt: cycles removed wholesale
  std::uint64_t messages = 0;         // messages spent in this phase
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

// Constructs a spanning forest of net.graph() into `forest` (must start
// empty). Edge weights are ignored (the ST problem is unweighted).
BuildStats build_st(sim::Network& net, graph::MarkedForest& forest);

// One Boruvka phase over `fragments` (forest.fragments() as of epoch - 1):
// each searching fragment elects a leader, runs find_min (kMst) or find_any
// (kSt) with the given config on the tree as of epoch - 1, and adds the
// found edge at `epoch`. Under kSt each merged component then resolves its
// potential cycle. With `dirty` null every fragment and component takes
// part; otherwise only those holding a dirty node do, and a fragment whose
// search comes back empty has its nodes cleaned.
// `scratch` is the caller's protocol arena bundle, hoisted across phases.
PhaseInfo boruvka_phase(sim::Network& net, graph::MarkedForest& forest,
                        ForestKind kind, const FindMinConfig& find_min_cfg,
                        const FindAnyConfig& find_any_cfg, std::uint32_t epoch,
                        std::span<const std::vector<graph::NodeId>> fragments,
                        proto::ProtoScratch& scratch,
                        std::vector<char>* dirty = nullptr);

}  // namespace kkt::core
