// Broadcast-and-echo (paper, Introduction; attributed to GHS [13]).
//
// "It is initiated by the broadcast of a message by a node x which becomes
// the 'root' of a tree. When a node v receives a broadcast message from its
// neighbor y, it designates y as its 'parent' and sends a broadcast message
// to each of its other neighbors in T, its 'children'. When a leaf receives
// a broadcast message, it sends an 'echo' to its parent, possibly carrying
// some value. When a non-leaf has received an echo from every child, it
// sends an echo to its parent, possibly aggregating its value with the
// values sent by its children."
//
// The aggregation is pluggable: `local` computes a node's contribution from
// its own knowledge plus the broadcast payload; `combine` folds a child's
// echo into the accumulator. Both operate on fixed-arity word vectors so the
// echo also fits the CONGEST budget. Works unchanged on every delivery
// policy (parent designation happens on first receipt).
//
// Per-node state is an epoch-stamped SoA arena (proto/scratch.h): a run
// touches only the nodes of its tree, so resetting costs O(tree size), not
// O(n), and an EchoScratch shared across runs (TreeOps owns one) makes
// repeated broadcast-and-echoes -- the inner loop of FindMin and every
// Boruvka phase -- allocation-free.
//
// Cost on a tree of size s: exactly 2(s-1) messages; 2*depth rounds (sync).
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

// Local contribution of node `self` given the broadcast payload.
using LocalFn = std::function<Words(NodeId self, std::span<const std::uint64_t> payload)>;
// Fold a child's echoed value into the parent's accumulator; insensitive
// to the order in which children are folded. There is no edge argument: a
// combine that reads the connecting tree edge (Insert repair's path-max
// query) looks it up as g.find_edge(self, child), on the echoes it uses.
using CombineFn = std::function<void(NodeId self, NodeId child, Words& acc,
                                     std::span<const std::uint64_t> child_val)>;

class BroadcastEcho final : public sim::Protocol {
 public:
  // `local`, `combine` and `scratch` are borrowed: TreeOps, the only
  // caller, runs the protocol to quiescence inside one call and shares the
  // arena across runs.
  BroadcastEcho(const graph::TreeView& tree, NodeId root, Words payload,
                const LocalFn& local, const CombineFn& combine,
                EchoScratch& scratch);

  void on_start(sim::Network& net, NodeId self) override;
  void on_message(sim::Network& net, NodeId self, NodeId from,
                  const sim::Message& msg) override;

  // Valid after the run reaches quiescence.
  bool done() const noexcept { return done_; }
  const Words& result() const noexcept { return result_; }

 private:
  void absorb_and_maybe_echo(sim::Network& net, NodeId self);
  void start_node(sim::Network& net, NodeId self, NodeId parent,
                  std::span<const std::uint64_t> payload);

  graph::TreeView tree_;
  NodeId root_;
  Words payload_;
  const LocalFn& local_;
  const CombineFn& combine_;

  EchoScratch* scratch_;
  bool done_ = false;
  Words result_;
};

}  // namespace kkt::proto
