#include "proto/cycle_break.h"

#include <cassert>
#include <utility>

namespace kkt::proto {

CycleBreak::CycleBreak(graph::MarkedForest& forest,
                       std::vector<CycleMember> members)
    : forest_(&forest),
      members_(std::move(members)),
      state_(forest.graph().node_count()) {
  for (const CycleMember& m : members_) state_[m.node].on_cycle = true;
}

void CycleBreak::on_start(sim::Network& net, NodeId self) {
  NodeState& st = state_[self];
  assert(st.on_cycle);
  // Find this node's two cycle neighbors and flip a fair coin between them.
  for (const CycleMember& m : members_) {
    if (m.node != self) continue;
    st.picked = m.cycle_neighbor[net.node_rng(self).coin() ? 1 : 0];
    break;
  }
  net.report_node_state_bits(64 * 2);
  net.send(self, st.picked, sim::Message(sim::Tag::kCycleUnmarkProposal));
}

void CycleBreak::on_message(sim::Network& net, NodeId self, NodeId from,
                            const sim::Message& msg) {
  (void)msg;
  assert(msg.tag == sim::Tag::kCycleUnmarkProposal);
  NodeState& st = state_[self];
  assert(st.on_cycle);
  if (st.picked == from) {
    // Both endpoints proposed this edge: unmark my half. The neighbor makes
    // the symmetric decision from my proposal, so the forest stays properly
    // marked without further communication.
    const auto e = net.graph().find_edge(self, from);
    assert(e.has_value());
    forest_->unmark_half(*e, self);
    ++half_unmarks_;
  }
}

}  // namespace kkt::proto
