// Fragment leader election by converging echoes (paper Section 3.3, after
// Korach-Rotem-Santoro [18]).
//
// "Every leaf of a fragment knows it is a leaf and so should start. Each
// leaf acts as if it has just received a broadcast message initiated by the
// leader... every internal node who received an echo from all its neighbors
// but one, sends an echo to that last one. It is then easy to see that
// either the tree has one median or two. In the first case, the echoes
// converge to that median... In the second case, there are two neighboring
// medians. Let the one with the higher identity be the leader."
//
// The winner broadcasts a LeaderAnnounce so every fragment node learns the
// leader's identity. Cost: <= 2s messages on a fragment of size s.
//
// Doubles as the cycle detector for Build ST (paper Section 4.2): if the
// marked subgraph contains a cycle, the echoes stall exactly at the cycle
// nodes -- after quiescence, "the nodes on the cycle will be exactly the set
// of nodes which fail to hear from all but two of their neighbors. Moreover,
// they know their neighbors in the cycle, since they have not heard from
// them."
#pragma once

#include <cstdint>
#include <vector>

#include "graph/forest.h"
#include "proto/scratch.h"
#include "sim/network.h"

namespace kkt::proto {

using graph::NodeId;

struct CycleMember {
  NodeId node;
  NodeId cycle_neighbor[2];
};

class LeaderElection final : public sim::Protocol {
 public:
  // `scratch` is shared across elections (see TreeOps): a fresh election
  // costs O(fragment), not O(n). Post-quiescence queries stay valid until
  // the scratch's next run.
  LeaderElection(const graph::TreeView& tree, ElectScratch& scratch);

  void on_start(sim::Network& net, NodeId self) override;
  void on_message(sim::Network& net, NodeId self, NodeId from,
                  const sim::Message& msg) override;

  // --- post-quiescence inspection -----------------------------------------
  // The elected leader, or kNoNode if the election stalled (cycle present).
  NodeId leader() const noexcept { return leader_; }
  // Leader's external ID as recorded by node v from the announcement
  // (0 if v never learned it).
  graph::ExtId leader_ext_seen_by(NodeId v) const {
    return static_cast<graph::ExtId>(scratch_->leader_ext(v));
  }
  // Nodes whose echoes stalled with exactly two unheard neighbors: the
  // cycle, if any. Restricted to the given fragment nodes.
  std::vector<CycleMember> stalled_cycle(
      std::span<const NodeId> fragment) const;

 private:
  void maybe_progress(sim::Network& net, NodeId self);
  void become_leader(sim::Network& net, NodeId self);
  void relay_announce(sim::Network& net, NodeId self, NodeId from,
                      std::uint64_t leader_ext);
  bool heard_from(NodeId self, NodeId y) const;

  graph::TreeView tree_;
  ElectScratch* scratch_;
  NodeId leader_ = graph::kNoNode;
};

}  // namespace kkt::proto
