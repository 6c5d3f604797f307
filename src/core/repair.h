// Impromptu repair of a maintained MST/ST (paper Section 3.2 / 4.3,
// Theorem 1.2).
//
// Between updates the network stores nothing beyond each node's incident
// edges (names + weights) and their mark bits -- the "impromptu" property.
// Each update is processed to completion on an asynchronous network:
//
//   Delete(u, v):   if the edge was in the forest, the smaller-ID endpoint
//                   runs FindMin (MST) or FindAny (ST) in its orphaned
//                   subtree; a found replacement is installed by the
//                   Add-Edge handshake; the empty answer certifies a bridge.
//   Insert(u, v):   the smaller-ID endpoint asks its tree, with one
//                   broadcast-and-echo, whether v is present and what the
//                   heaviest path edge towards v is; it then either merges
//                   two trees (one cross message), swaps out the heaviest
//                   path edge (one Drop-Edge broadcast + one cross message),
//                   or rejects the edge. Deterministic, O(n) messages.
//   Weight changes: increase on a tree edge is repaired like a deletion
//                   (the edge itself remains a candidate); decrease on a
//                   non-tree edge like an insertion; the other two cases
//                   need no communication at all.
//
// Every operation reports its own message/round cost, measured as metric
// deltas on the underlying network.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "core/build_mst.h"
#include "graph/forest.h"
#include "sim/network.h"

namespace kkt::core {

using graph::EdgeIdx;
using graph::NodeId;
using graph::Weight;

enum class RepairAction {
  kNone,          // nothing to do (e.g. non-tree deletion)
  kReplaced,      // tree edge removed, replacement found and marked
  kBridge,        // tree edge removed, no replacement exists
  kMergedTrees,   // inserted edge joined two trees
  kSwapped,       // inserted/lightened edge displaced a heavier tree edge
  kRejected,      // inserted/changed edge does not enter the forest
  kSearchFailed,  // Monte Carlo search exhausted its budget (w.h.p. absent)
  kActionCount,   // sentinel: number of actions (per-action histograms)
};

// Action name for logs/CLIs ("replaced", "bridge", ...), with the usual
// round trip for descriptor parsing.
const char* action_name(RepairAction a) noexcept;
std::optional<RepairAction> action_from_name(std::string_view name) noexcept;

struct RepairOutcome {
  RepairAction action = RepairAction::kNone;
  // Replacement / displaced edge, when applicable.
  std::optional<graph::EdgeNum> edge = std::nullopt;
  // Cost of this operation (metric deltas).
  std::uint64_t messages = 0;
  std::uint64_t rounds = 0;
  std::uint64_t broadcast_echoes = 0;
};

// Facade tying together the dynamic graph, the maintained forest and the
// (asynchronous) network. The facade itself holds no per-update state.
class DynamicForest {
 public:
  DynamicForest(graph::Graph& g, graph::MarkedForest& forest,
                sim::Network& net, ForestKind kind)
      : graph_(&g), forest_(&forest), net_(&net), kind_(kind) {}

  // Deletes the edge (which must be alive) and repairs the forest.
  RepairOutcome delete_edge(EdgeIdx e);

  // Extension (the paper's "simultaneous edge changes" future work):
  // deletes a whole batch of edges at once and repairs the forest with
  // Build MST's / Build ST's Boruvka phase (core::boruvka_phase) restricted
  // to the damaged fragments. Correct for MSTs because deleting edges never
  // evicts a surviving MST edge (each survivor stays minimum across the cut
  // that certified it), so the remaining forest is a subforest of the new
  // MSF and completing it greedily from minimum leaving edges is exact.
  // Fragments repaired in parallel phases: messages sum, elapsed time
  // counts the slowest fragment.
  struct BatchOutcome {
    std::size_t tree_edges_removed = 0;
    std::size_t replacements = 0;
    std::size_t phases = 0;
    std::uint64_t messages = 0;
    std::uint64_t rounds = 0;
  };
  BatchOutcome delete_batch(const std::vector<EdgeIdx>& edges);

  // Inserts edge {u, v} with weight w and repairs the forest. On return
  // *out (if non-null) is the new edge's index.
  RepairOutcome insert_edge(NodeId u, NodeId v, Weight w,
                            EdgeIdx* out = nullptr);

  // Changes the weight of an alive edge and repairs the forest.
  RepairOutcome change_weight(EdgeIdx e, Weight new_weight);

 private:
  struct PathQuery {
    bool target_in_tree = false;
    graph::AugWeight path_max = 0;
    graph::EdgeNum path_max_edge = 0;
  };

  // One broadcast-and-echo from `root`: is `target_ext` in the tree, and
  // what is the heaviest tree edge on the path to it?
  PathQuery path_query(NodeId root, graph::ExtId target_ext);

  // Repairs the cut left by removing the tree edge whose smaller-ID
  // endpoint is `initiator`.
  RepairOutcome repair_cut(NodeId initiator);

  // Marks the freshly inserted edge e = {initiator, peer}: the initiator
  // marks its half and sends one cross-edge message.
  void cross_mark(EdgeIdx e, NodeId initiator, NodeId peer);

  // Drop-Edge broadcast over the initiator's tree: the two endpoints of
  // the named edge unmark their halves on receipt.
  void broadcast_drop(NodeId root, graph::EdgeNum edge_num);

  NodeId smaller_ext_endpoint(EdgeIdx e) const;

  graph::Graph* graph_;
  graph::MarkedForest* forest_;
  sim::Network* net_;
  ForestKind kind_;
};

}  // namespace kkt::core
