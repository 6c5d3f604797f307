// Randomized cycle breaking for Build ST (paper Section 4.2).
//
// "Each node randomly picks one of the two edges incident to it in the
// cycle to exclude and sends a message along that edge to its other
// endpoint. If some edge is picked by both its neighbors, then this edge is
// unmarked, i.e., not added to the tree."
//
// Each endpoint of a doubly-picked edge learns this independently: it
// proposed the edge itself and received the neighbor's proposal over it, so
// both unmark their halves and the forest stays properly marked. For a cycle
// of length k at least one edge is unmarked with probability >= 1 - (3/4)^k
// while, because unmarked edges must be doubly proposed, at most half the
// cycle edges disappear ("at most half of the chosen outgoing edges are
// unmarked, so 'enough' mergers still occur").
#pragma once

#include <vector>

#include "graph/forest.h"
#include "proto/leader_election.h"
#include "sim/network.h"

namespace kkt::proto {

class CycleBreak final : public sim::Protocol {
 public:
  // `members` is the cycle as detected by LeaderElection::stalled_cycle;
  // participants passed to Network::run must be exactly these nodes.
  CycleBreak(graph::MarkedForest& forest, std::vector<CycleMember> members);

  void on_start(sim::Network& net, NodeId self) override;
  void on_message(sim::Network& net, NodeId self, NodeId from,
                  const sim::Message& msg) override;

  // Number of unmark decisions made (each counted once per endpoint).
  int half_unmarks() const noexcept { return half_unmarks_; }

 private:
  struct NodeState {
    bool on_cycle = false;
    NodeId picked = graph::kNoNode;  // neighbor across the proposed edge
  };

  graph::MarkedForest* forest_;
  std::vector<CycleMember> members_;
  std::vector<NodeState> state_;
  int half_unmarks_ = 0;
};

}  // namespace kkt::proto
