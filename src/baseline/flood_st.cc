#include "baseline/flood_st.h"

#include <cassert>

#include "graph/mst_oracle.h"

namespace kkt::baseline {
namespace {

using graph::NodeId;

class Flood final : public sim::Protocol {
 public:
  Flood(graph::MarkedForest& forest, NodeId initiator)
      : forest_(&forest),
        initiator_(initiator),
        seen_(forest.graph().node_count(), 0) {}

  void on_start(sim::Network& net, NodeId self) override {
    assert(self == initiator_);
    seen_[self] = 1;
    for (const graph::Incidence& inc : net.graph().incident(self)) {
      net.send(self, inc.peer, sim::Message(sim::Tag::kFloodExplore));
    }
  }

  void on_message(sim::Network& net, NodeId self, NodeId from,
                  const sim::Message& msg) override {
    switch (msg.tag) {
      case sim::Tag::kFloodExplore: {
        if (seen_[self]) return;  // duplicate token: drop
        seen_[self] = 1;
        const auto parent_edge = net.graph().find_edge(self, from);
        assert(parent_edge.has_value());
        forest_->mark_half(*parent_edge, self);
        net.send(self, from, sim::Message(sim::Tag::kFloodAck));
        for (const graph::Incidence& inc : net.graph().incident(self)) {
          if (inc.peer == from) continue;
          net.send(self, inc.peer, sim::Message(sim::Tag::kFloodExplore));
        }
        break;
      }
      case sim::Tag::kFloodAck: {
        const auto e = net.graph().find_edge(self, from);
        assert(e.has_value());
        forest_->mark_half(*e, self);
        break;
      }
      default:
        assert(false && "unexpected message tag in Flood");
    }
  }

 private:
  graph::MarkedForest* forest_;
  NodeId initiator_;
  std::vector<char> seen_;
};

}  // namespace

FloodStats flood_build_st(sim::Network& net, graph::MarkedForest& forest) {
  assert(forest.marked_edges().empty() && "forest must start empty");
  const graph::Graph& g = net.graph();
  FloodStats stats;

  const auto [label, count] = graph::components(g);
  std::vector<NodeId> initiator(count, graph::kNoNode);
  for (NodeId v = 0; v < g.node_count(); ++v) {
    NodeId& cur = initiator[label[v]];
    if (cur == graph::kNoNode || g.ext_id(v) > g.ext_id(cur)) cur = v;
  }

  for (NodeId start : initiator) {
    Flood flood(forest, start);
    const NodeId participants[] = {start};
    net.run(flood, participants);
    ++stats.components;
  }
  stats.spanning = forest.is_spanning_forest();
  return stats;
}

}  // namespace kkt::baseline
