#include "baseline/naive_repair.h"

#include <cassert>
#include <limits>

namespace kkt::baseline {
namespace {

using graph::AugWeight;
using graph::EdgeIdx;
using graph::NodeId;

constexpr AugWeight kInfAug = ~AugWeight{0};

// Stage 1: membership broadcast-and-echo (the echo is the barrier that
// guarantees every tree node knows its membership before probing starts).
class Membership final : public sim::Protocol {
 public:
  Membership(graph::TreeView tree, NodeId root, std::vector<char>& in_tree)
      : tree_(std::move(tree)),
        root_(root),
        in_tree_(&in_tree),
        pending_(tree_.graph().node_count(), 0),
        parent_(tree_.graph().node_count(), graph::kNoNode) {}

  void on_start(sim::Network& net, NodeId self) override {
    assert(self == root_);
    begin(net, self, graph::kNoNode);
  }

  void on_message(sim::Network& net, NodeId self, NodeId from,
                  const sim::Message& msg) override {
    if (msg.tag == sim::Tag::kBroadcast) {
      begin(net, self, from);
    } else {
      assert(msg.tag == sim::Tag::kEcho);
      assert(pending_[self] > 0);
      if (--pending_[self] == 0) echo_up(net, self);
    }
  }

 private:
  void begin(sim::Network& net, NodeId self, NodeId parent) {
    (*in_tree_)[self] = 1;
    parent_[self] = parent;
    std::uint32_t children = 0;
    for (const graph::Incidence& inc : tree_.neighbors(self)) {
      if (inc.peer == parent) continue;
      net.send(self, inc.peer, sim::Message(sim::Tag::kBroadcast));
      ++children;
    }
    pending_[self] = children;
    if (children == 0) echo_up(net, self);
  }

  void echo_up(sim::Network& net, NodeId self) {
    if (self == root_) return;
    net.send(self, parent_[self], sim::Message(sim::Tag::kEcho));
  }

  graph::TreeView tree_;
  NodeId root_;
  std::vector<char>* in_tree_;
  std::vector<std::uint32_t> pending_;
  std::vector<NodeId> parent_;
};

// Stages 2+3: every tree node probes all its unmarked incident edges; peers
// answer with their membership bit; local minima then converge up the tree.
class ProbeAndReport final : public sim::Protocol {
 public:
  ProbeAndReport(graph::TreeView tree, NodeId root,
                 const std::vector<char>& in_tree)
      : tree_(std::move(tree)),
        root_(root),
        in_tree_(&in_tree),
        state_(tree_.graph().node_count()) {}

  void on_start(sim::Network& net, NodeId self) override {
    begin(net, self, graph::kNoNode);
  }

  void on_message(sim::Network& net, NodeId self, NodeId from,
                  const sim::Message& msg) override {
    switch (msg.tag) {
      case sim::Tag::kBroadcast:
        begin(net, self, from);
        break;
      case sim::Tag::kNaiveProbe:
        net.send(self, from,
                 sim::Message(sim::Tag::kNaiveProbeReply,
                              {(*in_tree_)[self] ? 1u : 0u}));
        break;
      case sim::Tag::kNaiveProbeReply: {
        NodeState& st = state_[self];
        assert(st.pending_probes > 0);
        if (msg.words.at(0) == 0) {
          const auto e = tree_.graph().find_edge(self, from);
          assert(e.has_value());
          consider(st, tree_.graph().aug_weight(*e),
                   tree_.graph().edge_num(*e));
        }
        --st.pending_probes;
        maybe_report(net, self);
        break;
      }
      case sim::Tag::kGhsReport: {  // reuse: [aug.hi, aug.lo, edge_num]
        NodeState& st = state_[self];
        assert(st.pending_children > 0);
        consider(st, util::make_u128(msg.words.at(0), msg.words.at(1)),
                 msg.words.at(2));
        --st.pending_children;
        maybe_report(net, self);
        break;
      }
      default:
        assert(false && "unexpected message tag in ProbeAndReport");
    }
  }

  bool found() const noexcept { return done_ && best_ != kInfAug; }
  graph::EdgeNum min_edge_num() const noexcept { return best_num_; }
  AugWeight min_aug() const noexcept { return best_; }

 private:
  struct NodeState {
    bool started = false;
    NodeId parent = graph::kNoNode;
    std::uint32_t pending_children = 0;
    std::uint32_t pending_probes = 0;
    AugWeight best = kInfAug;
    graph::EdgeNum best_num = 0;
  };

  static void consider(NodeState& st, AugWeight aug, graph::EdgeNum num) {
    if (aug < st.best) {
      st.best = aug;
      st.best_num = num;
    }
  }

  void begin(sim::Network& net, NodeId self, NodeId parent) {
    NodeState& st = state_[self];
    assert(!st.started);
    st.started = true;
    st.parent = parent;
    for (const graph::Incidence& inc : tree_.neighbors(self)) {
      if (inc.peer == parent) continue;
      net.send(self, inc.peer, sim::Message(sim::Tag::kBroadcast));
      ++st.pending_children;
    }
    // Probe every unmarked incident edge (tree edges lead inside by
    // definition).
    for (const graph::Incidence& inc : tree_.graph().incident(self)) {
      if (tree_.contains(inc.edge)) continue;
      net.send(self, inc.peer, sim::Message(sim::Tag::kNaiveProbe));
      ++st.pending_probes;
    }
    maybe_report(net, self);
  }

  void maybe_report(sim::Network& net, NodeId self) {
    NodeState& st = state_[self];
    if (!st.started || st.pending_probes != 0 || st.pending_children != 0) {
      return;
    }
    if (self == root_) {
      done_ = true;
      best_ = st.best;
      best_num_ = st.best_num;
      return;
    }
    net.send(self, st.parent,
             sim::Message(sim::Tag::kGhsReport,
                          {util::hi64(st.best), util::lo64(st.best),
                           st.best_num}));
  }

  graph::TreeView tree_;
  NodeId root_;
  const std::vector<char>* in_tree_;
  std::vector<NodeState> state_;
  bool done_ = false;
  AugWeight best_ = kInfAug;
  graph::EdgeNum best_num_ = 0;
};

}  // namespace

NaiveSearchResult naive_find_min_cut(sim::Network& net,
                                     const graph::MarkedForest& forest,
                                     graph::NodeId root) {
  const graph::TreeView tree(forest);
  std::vector<char> in_tree(forest.graph().node_count(), 0);

  Membership membership(tree, root, in_tree);
  const NodeId participants[] = {root};
  net.run(membership, participants);

  ProbeAndReport probe(tree, root, in_tree);
  net.run(probe, participants);

  NaiveSearchResult res;
  if (probe.found()) {
    res.found = true;
    res.edge_num = probe.min_edge_num();
    res.aug = probe.min_aug();
  }
  return res;
}

}  // namespace kkt::baseline
