#include "proto/broadcast_echo.h"

#include <cassert>
#include <utility>

namespace kkt::proto {

BroadcastEcho::BroadcastEcho(const graph::TreeView& tree, NodeId root,
                             Words payload, const LocalFn& local,
                             const CombineFn& combine, EchoScratch& scratch)
    : tree_(tree),
      root_(root),
      payload_(std::move(payload)),
      local_(local),
      combine_(combine),
      scratch_(&scratch) {
  scratch_->ensure(tree.graph().node_count());
  scratch_->next_run();
}

void BroadcastEcho::start_node(sim::Network& net, NodeId self, NodeId parent,
                               std::span<const std::uint64_t> payload) {
  scratch_->touch(self);
  assert(!scratch_->started(self) &&
         "tree contains a cycle: broadcast arrived twice");
  scratch_->set_started(self);
  scratch_->parent(self) = parent;
  Words& acc = scratch_->acc(self);
  acc = local_(self, payload);
  std::uint32_t children = 0;
  for (const graph::Incidence& inc : tree_.neighbors(self)) {
    if (inc.peer == parent) continue;
    sim::Message msg(sim::Tag::kBroadcast);
    msg.words.assign(payload);
    net.send(self, inc.peer, msg);
    ++children;
  }
  scratch_->pending(self) = children;
  // Scratch footprint: parent id + pending counter + accumulator words.
  net.report_node_state_bits(64 + 64 * acc.size());
  if (children == 0) absorb_and_maybe_echo(net, self);
}

void BroadcastEcho::on_start(sim::Network& net, NodeId self) {
  assert(self == root_ && "only the root initiates a broadcast-and-echo");
  start_node(net, self, graph::kNoNode, payload_);
}

void BroadcastEcho::on_message(sim::Network& net, NodeId self, NodeId from,
                               const sim::Message& msg) {
  switch (msg.tag) {
    case sim::Tag::kBroadcast:
      start_node(net, self, from, msg.words);
      break;
    case sim::Tag::kEcho: {
      assert(scratch_->started(self) && scratch_->pending(self) > 0);
      combine_(self, from, scratch_->acc(self), msg.words);
      if (--scratch_->pending(self) == 0) absorb_and_maybe_echo(net, self);
      break;
    }
    default:
      assert(false && "unexpected message tag in broadcast-and-echo");
  }
}

void BroadcastEcho::absorb_and_maybe_echo(sim::Network& net, NodeId self) {
  const Words& acc = scratch_->acc(self);
  if (self == root_) {
    done_ = true;
    result_ = acc;
    return;
  }
  sim::Message echo(sim::Tag::kEcho);
  echo.words = acc;
  net.send(self, scratch_->parent(self), echo);
}

}  // namespace kkt::proto
