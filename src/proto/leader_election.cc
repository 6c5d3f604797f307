#include "proto/leader_election.h"

#include <algorithm>
#include <cassert>

namespace kkt::proto {

LeaderElection::LeaderElection(const graph::TreeView& tree,
                               ElectScratch& scratch)
    : tree_(tree), scratch_(&scratch) {
  scratch_->ensure(tree.graph().node_count());
  scratch_->next_run();
}

void LeaderElection::on_start(sim::Network& net, NodeId self) {
  scratch_->touch(self);
  assert(!scratch_->started(self));
  scratch_->set_started(self);
  const auto degree = static_cast<std::uint32_t>(tree_.degree(self));
  scratch_->degree(self) = degree;
  net.report_node_state_bits(64 * 3);
  if (degree == 0) {
    // Singleton fragment: trivially the leader.
    scratch_->set_center(self);
    scratch_->set_leader_ext(self, tree_.graph().ext_id(self));
    leader_ = self;
    return;
  }
  maybe_progress(net, self);
}

bool LeaderElection::heard_from(NodeId self, NodeId y) const {
  const std::vector<NodeId>& received = scratch_->received(self);
  return std::find(received.begin(), received.end(), y) != received.end();
}

void LeaderElection::on_message(sim::Network& net, NodeId self, NodeId from,
                                const sim::Message& msg) {
  scratch_->touch(self);
  switch (msg.tag) {
    case sim::Tag::kElectEcho: {
      assert(scratch_->started(self) && !heard_from(self, from));
      std::vector<NodeId>& received = scratch_->received_mut(self);
      received.push_back(from);
      if (received.size() == scratch_->degree(self)) {
        // Heard from everyone: this node is a median ("center").
        scratch_->set_center(self);
        if (scratch_->sent_to(self) == graph::kNoNode) {
          // Sole center.
          become_leader(net, self);
        } else {
          // Two neighboring centers: self sent to `from` and `from` sent
          // back. Higher external ID wins; both endpoints decide locally
          // and consistently (KT1: each knows the neighbor's ID).
          assert(scratch_->sent_to(self) == from);
          if (tree_.graph().ext_id(self) > tree_.graph().ext_id(from)) {
            become_leader(net, self);
          }
        }
      } else {
        maybe_progress(net, self);
      }
      break;
    }
    case sim::Tag::kLeaderAnnounce:
      relay_announce(net, self, from, msg.words.at(0));
      break;
    default:
      assert(false && "unexpected message tag in leader election");
  }
}

void LeaderElection::maybe_progress(sim::Network& net, NodeId self) {
  if (scratch_->sent_to(self) != graph::kNoNode || scratch_->center(self)) {
    return;
  }
  if (scratch_->received(self).size() + 1 != scratch_->degree(self)) return;
  // Exactly one unheard tree neighbor: send the converging echo to it.
  for (const graph::Incidence& inc : tree_.neighbors(self)) {
    if (!heard_from(self, inc.peer)) {
      scratch_->set_sent_to(self, inc.peer);
      net.send(self, inc.peer, sim::Message(sim::Tag::kElectEcho));
      return;
    }
  }
  assert(false && "unheard neighbor not found");
}

void LeaderElection::become_leader(sim::Network& net, NodeId self) {
  leader_ = self;
  relay_announce(net, self, graph::kNoNode,
                 tree_.graph().ext_id(self));
}

void LeaderElection::relay_announce(sim::Network& net, NodeId self,
                                    NodeId from, std::uint64_t leader_ext) {
  assert(scratch_->leader_ext(self) == 0 && "leader announced twice");
  scratch_->set_leader_ext(self, leader_ext);
  for (const graph::Incidence& inc : tree_.neighbors(self)) {
    if (inc.peer == from) continue;
    net.send(self, inc.peer,
             sim::Message(sim::Tag::kLeaderAnnounce, {leader_ext}));
  }
}

std::vector<CycleMember> LeaderElection::stalled_cycle(
    std::span<const NodeId> fragment) const {
  std::vector<CycleMember> out;
  for (NodeId v : fragment) {
    if (!scratch_->started(v) || scratch_->center(v) ||
        scratch_->sent_to(v) != graph::kNoNode) {
      continue;
    }
    const std::uint32_t degree = scratch_->degree(v);
    if (degree < 2 || scratch_->received(v).size() + 2 != degree) continue;
    CycleMember member{v, {graph::kNoNode, graph::kNoNode}};
    int k = 0;
    for (const graph::Incidence& inc : tree_.neighbors(v)) {
      if (!heard_from(v, inc.peer)) {
        assert(k < 2);
        member.cycle_neighbor[k++] = inc.peer;
      }
    }
    assert(k == 2);
    out.push_back(member);
  }
  return out;
}

}  // namespace kkt::proto
