#include "baseline/ghs.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <utility>

#include "graph/mst_oracle.h"
#include "proto/broadcast.h"
#include "proto/tree_ops.h"

namespace kkt::baseline {
namespace {

using graph::AugWeight;
using graph::EdgeIdx;
using graph::NodeId;

constexpr AugWeight kInfAug = ~AugWeight{0};

// One fragment's find-min-outgoing search: broadcast "start" down the
// fragment tree; each node probes its unrejected non-tree edges cheapest-
// first with Test messages answered by fragment-ID comparison; local minima
// converge back to the leader.
class GhsSearch final : public sim::Protocol {
 public:
  GhsSearch(graph::TreeView tree, NodeId root,
            const std::vector<std::uint64_t>& frag_id,
            std::vector<char>& rejected)
      : tree_(std::move(tree)),
        root_(root),
        frag_id_(&frag_id),
        rejected_(&rejected),
        state_(tree_.graph().node_count()) {}

  void on_start(sim::Network& net, NodeId self) override {
    assert(self == root_);
    begin(net, self, graph::kNoNode);
  }

  void on_message(sim::Network& net, NodeId self, NodeId from,
                  const sim::Message& msg) override {
    switch (msg.tag) {
      case sim::Tag::kGhsFragment:
        begin(net, self, from);
        break;
      case sim::Tag::kGhsTest: {
        // Answer by comparing fragment IDs as frozen at phase start. The
        // responder may belong to any fragment.
        const bool same = (*frag_id_)[self] == msg.words.at(0);
        net.send(self, from,
                 sim::Message(same ? sim::Tag::kGhsReject
                                   : sim::Tag::kGhsAccept));
        break;
      }
      case sim::Tag::kGhsReject: {
        NodeState& st = state_[self];
        const EdgeIdx e = current_probe(self);
        assert(tree_.graph().edge(e).other(self) == from);
        // Both endpoints are in one fragment forever: never probe again.
        (*rejected_)[e] = 1;
        ++st.probe_pos;
        continue_probing(net, self);
        break;
      }
      case sim::Tag::kGhsAccept: {
        NodeState& st = state_[self];
        const EdgeIdx e = current_probe(self);
        assert(tree_.graph().edge(e).other(self) == from);
        // Fold into the running minimum -- a child's report may already be
        // smaller than this node's own accepted edge.
        const AugWeight aug = tree_.graph().aug_weight(e);
        if (aug < st.best) {
          st.best = aug;
          st.best_num = tree_.graph().edge_num(e);
        }
        st.probing_done = true;
        maybe_report(net, self);
        break;
      }
      case sim::Tag::kGhsReport: {
        NodeState& st = state_[self];
        assert(st.pending > 0);
        const AugWeight aug = util::make_u128(msg.words.at(0), msg.words.at(1));
        if (aug < st.best) {
          st.best = aug;
          st.best_num = msg.words.at(2);
        }
        --st.pending;
        maybe_report(net, self);
        break;
      }
      default:
        assert(false && "unexpected message tag in GhsSearch");
    }
  }

  bool found() const noexcept { return done_ && best_ != kInfAug; }
  graph::EdgeNum min_edge_num() const noexcept { return best_num_; }

 private:
  struct NodeState {
    bool started = false;
    bool probing_done = false;
    NodeId parent = graph::kNoNode;
    std::uint32_t pending = 0;  // children that have not reported
    std::vector<EdgeIdx> probes;  // unrejected non-tree edges, cheapest first
    std::size_t probe_pos = 0;
    AugWeight best = kInfAug;
    graph::EdgeNum best_num = 0;
  };

  EdgeIdx current_probe(NodeId self) const {
    const NodeState& st = state_[self];
    assert(st.probe_pos < st.probes.size());
    return st.probes[st.probe_pos];
  }

  void begin(sim::Network& net, NodeId self, NodeId parent) {
    NodeState& st = state_[self];
    assert(!st.started && "fragment tree contains a cycle");
    st.started = true;
    st.parent = parent;
    const std::uint64_t my_frag = (*frag_id_)[self];
    std::uint32_t children = 0;
    for (const graph::Incidence& inc : tree_.neighbors(self)) {
      if (inc.peer == parent) continue;
      net.send(self, inc.peer, sim::Message(sim::Tag::kGhsFragment));
      ++children;
    }
    st.pending = children;
    // Candidate probes: alive incident edges that are neither in the tree
    // nor already rejected, cheapest first (GHS probes sequentially and
    // stops at the first accept). Each aug weight is computed once and the
    // keyed candidates sorted; aug weights are unique, so the order is too.
    const graph::Graph& g = tree_.graph();
    keyed_.clear();
    for (const graph::Incidence& inc : g.incident(self)) {
      if (tree_.contains(inc.edge) || (*rejected_)[inc.edge]) continue;
      keyed_.emplace_back(g.incident_aug(self, inc), inc.edge);
    }
    std::sort(keyed_.begin(), keyed_.end());
    for (const auto& key : keyed_) st.probes.push_back(key.second);
    (void)my_frag;
    continue_probing(net, self);
  }

  void continue_probing(sim::Network& net, NodeId self) {
    NodeState& st = state_[self];
    if (st.probe_pos >= st.probes.size()) {
      st.probing_done = true;
      maybe_report(net, self);
      return;
    }
    const EdgeIdx e = st.probes[st.probe_pos];
    net.send(self, tree_.graph().edge(e).other(self),
             sim::Message(sim::Tag::kGhsTest, {(*frag_id_)[self]}));
  }

  void maybe_report(sim::Network& net, NodeId self) {
    NodeState& st = state_[self];
    if (!st.probing_done || st.pending != 0) return;
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
  const std::vector<std::uint64_t>* frag_id_;
  std::vector<char>* rejected_;
  std::vector<NodeState> state_;
  std::vector<std::pair<AugWeight, EdgeIdx>> keyed_;  // begin()'s scratch
  bool done_ = false;
  AugWeight best_ = kInfAug;
  graph::EdgeNum best_num_ = 0;
};

}  // namespace

GhsStats ghs_build_mst(sim::Network& net, graph::MarkedForest& forest) {
  assert(forest.marked_edges().empty() && "forest must start empty");
  const graph::Graph& g = net.graph();
  const std::size_t n = g.node_count();
  GhsStats stats;
  if (n == 0) return stats;

  const std::size_t graph_components = graph::components(g).second;
  const std::size_t max_phases =
      2 * static_cast<std::size_t>(std::ceil(
              std::log2(static_cast<double>(std::max<std::size_t>(n, 2))))) +
      4;

  // Persistent across phases: the classic GHS rejected-edge memory.
  std::vector<char> rejected(g.edge_slots() + g.node_count() * 4, 0);
  std::vector<std::uint64_t> frag_id(n, 0);

  // One scratch bundle for the whole build (see core/build_mst.cc).
  proto::ProtoScratch scratch;

  for (std::size_t phase = 1; phase <= max_phases; ++phase) {
    const auto frags = forest.fragments();
    if (frags.size() == graph_components) {
      stats.spanning = true;
      break;
    }
    GhsPhaseInfo info;
    info.fragments = frags.size();
    const std::uint64_t msgs_before = net.metrics().messages;

    const graph::TreeView tree(forest, static_cast<std::uint32_t>(phase) - 1);
    proto::TreeOps ops(net, tree, &scratch);

    // Step 1 (all fragments in parallel): elect leaders; the announcement
    // doubles as the fragment-ID broadcast.
    std::vector<NodeId> leaders(frags.size());
    {
      sim::ParallelPhase par(net);
      for (std::size_t f = 0; f < frags.size(); ++f) {
        const auto branch = par.branch();
        const proto::ElectionResult el = ops.elect(frags[f]);
        assert(el.leader != graph::kNoNode);
        leaders[f] = el.leader;
        const std::uint64_t id = g.ext_id(el.leader);
        for (NodeId v : frags[f]) frag_id[v] = id;
      }
      par.finish();
    }

    // Step 2 (all fragments in parallel): probe, report, connect.
    {
      sim::ParallelPhase par(net);
      for (std::size_t f = 0; f < frags.size(); ++f) {
        const auto branch = par.branch();
        if (rejected.size() < g.edge_slots()) {
          rejected.resize(g.edge_slots(), 0);
        }
        GhsSearch search(tree, leaders[f], frag_id, rejected);
        const NodeId participants[] = {leaders[f]};
        net.run(search, participants);
        if (search.found()) {
          ops.add_edge(forest, leaders[f], search.min_edge_num(),
                       static_cast<std::uint32_t>(phase));
        }
      }
      par.finish();
    }

    info.messages = net.metrics().messages - msgs_before;
    stats.per_phase.push_back(info);
    ++stats.phases;
  }

  if (!stats.spanning) {
    stats.spanning = forest.components().second == graph_components;
  }
  return stats;
}

}  // namespace kkt::baseline
