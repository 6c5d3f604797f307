#include "proto/broadcast.h"

#include <cassert>
#include <utility>

namespace kkt::proto {

Broadcast::Broadcast(const graph::TreeView& tree, NodeId root, Words payload,
                     const ReceiveFn& on_receive, EpochSeen& seen)
    : tree_(tree),
      root_(root),
      payload_(std::move(payload)),
      on_receive_(on_receive),
      seen_(&seen) {
  seen_->ensure(tree.graph().node_count());
  seen_->next_run();
}

void Broadcast::on_start(sim::Network& net, NodeId self) {
  assert(self == root_);
  relay(net, self, graph::kNoNode, payload_);
}

void Broadcast::on_message(sim::Network& net, NodeId self, NodeId from,
                           const sim::Message& msg) {
  assert(msg.tag == sim::Tag::kBroadcast);
  relay(net, self, from, msg.words);
}

void Broadcast::relay(sim::Network& net, NodeId self, NodeId from,
                      std::span<const std::uint64_t> payload) {
  assert(!seen_->seen(self) && "tree contains a cycle");
  seen_->mark(self);
  // Relay strictly before acting: receive actions may unmark edges (the
  // Drop-Edge broadcast), and the token must cross an edge before either
  // endpoint's action can remove that edge from the relaying node's view.
  for (const graph::Incidence& inc : tree_.neighbors(self)) {
    if (inc.peer == from) continue;
    sim::Message msg(sim::Tag::kBroadcast);
    msg.words.assign(payload);
    net.send(self, inc.peer, msg);
  }
  if (on_receive_) on_receive_(self, payload);
}

AddEdgeHandshake::AddEdgeHandshake(graph::MarkedForest& forest,
                                   graph::TreeView tree, NodeId root,
                                   graph::EdgeNum edge_num,
                                   std::uint32_t epoch, EpochSeen& seen)
    : forest_(&forest),
      tree_(std::move(tree)),
      root_(root),
      edge_num_(edge_num),
      epoch_(epoch),
      seen_(&seen) {
  seen_->ensure(tree_.graph().node_count());
  seen_->next_run();
}

void AddEdgeHandshake::on_start(sim::Network& net, NodeId self) {
  assert(self == root_);
  relay_and_check(net, self, graph::kNoNode);
}

void AddEdgeHandshake::on_message(sim::Network& net, NodeId self, NodeId from,
                                  const sim::Message& msg) {
  switch (msg.tag) {
    case sim::Tag::kBroadcast:
      relay_and_check(net, self, from);
      break;
    case sim::Tag::kAddEdge: {
      // The outside endpoint: mark the half of the edge the message crossed.
      const auto e = tree_.graph().find_edge(self, from);
      assert(e.has_value() && tree_.graph().edge_num(*e) == edge_num_);
      forest_->mark_half(*e, self, epoch_);
      completed_ = true;
      break;
    }
    default:
      assert(false && "unexpected message tag in AddEdgeHandshake");
  }
}

void AddEdgeHandshake::relay_and_check(sim::Network& net, NodeId self,
                                       NodeId from) {
  assert(!seen_->seen(self) && "tree contains a cycle");
  seen_->mark(self);
  for (const graph::Incidence& inc : tree_.neighbors(self)) {
    if (inc.peer == from) continue;
    net.send(self, inc.peer,
             sim::Message(sim::Tag::kBroadcast,
                          {static_cast<std::uint64_t>(edge_num_)}));
  }
  // Is the edge to add incident to me, with me inside the tree? (The edge
  // itself is unmarked, so it never appears among tree_.neighbors.) The
  // edge number is the endpoints' external IDs, so a node that is neither
  // skips the row scan.
  const graph::Graph& g = tree_.graph();
  if (!graph::edge_num_names(edge_num_, g.ext_id(self), g.id_bits())) return;
  for (const graph::Incidence& inc : g.incident(self)) {
    if (g.edge_num(inc.edge) == edge_num_) {
      forest_->mark_half(inc.edge, self, epoch_);
      net.send(self, inc.peer, sim::Message(sim::Tag::kAddEdge));
      break;
    }
  }
}

}  // namespace kkt::proto
