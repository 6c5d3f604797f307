// Convenience layer: run one tree protocol to quiescence and hand the
// initiator its result. Every method is one (or a fixed small number of)
// counted network operations; the core algorithms of the paper are
// root-driven sequences of these calls, mirroring how the initiator decides
// each next step after receiving an echo.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/forest.h"
#include "proto/broadcast.h"
#include "proto/broadcast_echo.h"
#include "proto/leader_election.h"
#include "proto/scratch.h"
#include "sim/network.h"

namespace kkt::proto {

struct ElectionResult {
  // Elected leader, or kNoNode if the election stalled on a cycle.
  NodeId leader = graph::kNoNode;
  // The stalled cycle (empty when a leader was elected).
  std::vector<CycleMember> cycle;
};

class TreeOps {
 public:
  // `scratch` may be shared across TreeOps instances (hoist one
  // ProtoScratch outside a phase loop): the per-node protocol arenas then
  // persist across phases, so per-fragment ops cost O(fragment) instead of
  // O(n). When null, this TreeOps owns private arenas (still reused across
  // its own calls). Counters are bit-identical either way, so one bundle may
  // also serve TreeOps over different views in turn (a Boruvka phase's
  // search and its cycle pass).
  explicit TreeOps(sim::Network& net, graph::TreeView tree,
                   ProtoScratch* scratch = nullptr)
      : net_(&net),
        tree_(std::move(tree)),
        scratch_(scratch != nullptr ? scratch : &own_scratch_) {}

  // One broadcast-and-echo from `root`; returns the aggregate.
  Words broadcast_echo(NodeId root, Words payload, const LocalFn& local,
                       const CombineFn& combine);

  // One-way broadcast from `root` over the tree.
  void broadcast(NodeId root, Words payload,
                 const Broadcast::ReceiveFn& on_receive = {});

  // Add-Edge handshake: announce `edge_num` in the tree, mark both halves
  // (with the given epoch). Returns true if the outside endpoint confirmed.
  bool add_edge(graph::MarkedForest& forest, NodeId root,
                graph::EdgeNum edge_num, std::uint32_t epoch = 0);

  // Leader election over the fragment containing exactly `fragment` nodes.
  ElectionResult elect(std::span<const NodeId> fragment);

  sim::Network& net() noexcept { return *net_; }
  const graph::TreeView& tree() const noexcept { return tree_; }
  const graph::Graph& graph() const noexcept { return tree_.graph(); }

 private:
  sim::Network* net_;
  graph::TreeView tree_;
  // Reused across ops (FindMin's inner loop, one op per fragment per
  // phase): each protocol touches only its own tree and allocates nothing
  // once the arenas are warm.
  ProtoScratch own_scratch_;  // used only when no shared bundle was provided
  ProtoScratch* scratch_;
};

// --- stock combine functions ------------------------------------------------

// Pointwise XOR of fixed-arity word vectors.
CombineFn combine_xor();
// Pointwise saturating-free uint64 sum.
CombineFn combine_sum();
// Pointwise max.
CombineFn combine_max();

}  // namespace kkt::proto
