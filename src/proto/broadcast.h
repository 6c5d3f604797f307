// One-way tree broadcast, and the Add-Edge handshake built on it.
//
// Broadcast: the root floods a payload down the tree (no echo); each node
// may react via a callback (e.g. record "stop", learn the leader). Cost on
// a tree of size s: s-1 messages, depth rounds.
//
// AddEdge (paper Section 3.2/3.3): after FindMin returns edge {u', v'}
// (identified by its edge number), the initiator "broadcasts that {u', v'}
// should be added ... and u' forwards this message to v'. Both u' and v'
// mark the edge." The in-tree endpoint recognizes the edge number among its
// incident edges, marks its half, and sends one cross-edge message; the
// outside endpoint marks its half on receipt. Cost: (s-1) + 1 messages.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/forest.h"
#include "proto/scratch.h"
#include "proto/words.h"
#include "sim/network.h"

namespace kkt::proto {

using graph::NodeId;

class Broadcast final : public sim::Protocol {
 public:
  // on_receive runs at every tree node (including the root) with the payload.
  using ReceiveFn =
      std::function<void(NodeId self, std::span<const std::uint64_t> payload)>;

  // `on_receive` and `seen` are borrowed from TreeOps, the only caller: it
  // runs the broadcast inside one call and shares the membership stamps
  // across broadcasts, so a broadcast costs O(tree), not O(n).
  Broadcast(const graph::TreeView& tree, NodeId root, Words payload,
            const ReceiveFn& on_receive, EpochSeen& seen);

  void on_start(sim::Network& net, NodeId self) override;
  void on_message(sim::Network& net, NodeId self, NodeId from,
                  const sim::Message& msg) override;

 private:
  void relay(sim::Network& net, NodeId self, NodeId from,
             std::span<const std::uint64_t> payload);

  graph::TreeView tree_;
  NodeId root_;
  Words payload_;
  const ReceiveFn& on_receive_;
  EpochSeen* seen_;
};

class AddEdgeHandshake final : public sim::Protocol {
 public:
  // Marks the alive edge with the given edge number; both marks get `epoch`.
  AddEdgeHandshake(graph::MarkedForest& forest, graph::TreeView tree,
                   NodeId root, graph::EdgeNum edge_num, std::uint32_t epoch,
                   EpochSeen& seen);

  void on_start(sim::Network& net, NodeId self) override;
  void on_message(sim::Network& net, NodeId self, NodeId from,
                  const sim::Message& msg) override;

  // True once the outside endpoint confirmed its half-mark.
  bool completed() const noexcept { return completed_; }

 private:
  void relay_and_check(sim::Network& net, NodeId self, NodeId from);

  graph::MarkedForest* forest_;
  graph::TreeView tree_;
  NodeId root_;
  graph::EdgeNum edge_num_;
  std::uint32_t epoch_;
  EpochSeen* seen_;
  bool completed_ = false;
};

}  // namespace kkt::proto
