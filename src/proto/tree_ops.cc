#include "proto/tree_ops.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <utility>

namespace kkt::proto {

Words TreeOps::broadcast_echo(NodeId root, Words payload, const LocalFn& local,
                              const CombineFn& combine) {
  BroadcastEcho proto(tree_, root, std::move(payload), local, combine,
                      scratch_->echo);
  const NodeId participants[] = {root};
  net_->run(proto, participants);
  assert(proto.done() && "broadcast-and-echo did not converge");
  net_->metrics().broadcast_echoes += 1;
  return proto.result();
}

void TreeOps::broadcast(NodeId root, Words payload,
                        const Broadcast::ReceiveFn& on_receive) {
  Broadcast proto(tree_, root, std::move(payload), on_receive,
                  scratch_->seen);
  const NodeId participants[] = {root};
  net_->run(proto, participants);
}

bool TreeOps::add_edge(graph::MarkedForest& forest, NodeId root,
                       graph::EdgeNum edge_num, std::uint32_t epoch) {
  AddEdgeHandshake proto(forest, tree_, root, edge_num, epoch, scratch_->seen);
  const NodeId participants[] = {root};
  net_->run(proto, participants);
  return proto.completed();
}

ElectionResult TreeOps::elect(std::span<const NodeId> fragment) {
  LeaderElection proto(tree_, scratch_->elect);
  net_->run(proto, fragment);
  ElectionResult res;
  res.leader = proto.leader();
  if (res.leader == graph::kNoNode) {
    res.cycle = proto.stalled_cycle(fragment);
  }
  return res;
}

namespace {

template <typename Op>
CombineFn pointwise(Op op) {
  return [op](NodeId, NodeId, Words& acc,
              std::span<const std::uint64_t> child) {
    assert(acc.size() == child.size());
    for (std::size_t i = 0; i < acc.size(); ++i) acc[i] = op(acc[i], child[i]);
  };
}

}  // namespace

CombineFn combine_xor() { return pointwise(std::bit_xor<>{}); }
CombineFn combine_sum() { return pointwise(std::plus<>{}); }
CombineFn combine_max() {
  return pointwise(
      [](std::uint64_t a, std::uint64_t b) { return std::max(a, b); });
}

}  // namespace kkt::proto
