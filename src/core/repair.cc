#include "core/repair.h"

#include <algorithm>
#include <cassert>

#include "core/wire.h"
#include "proto/broadcast.h"
#include "proto/tree_ops.h"

namespace kkt::core {
namespace {

// Micro-protocol: the initiator marks its half of a fresh edge and tells
// the other endpoint to do the same. One message.
class CrossMark final : public sim::Protocol {
 public:
  CrossMark(graph::MarkedForest& forest, EdgeIdx e, NodeId initiator,
            NodeId peer)
      : forest_(&forest), edge_(e), initiator_(initiator), peer_(peer) {}

  void on_start(sim::Network& net, NodeId self) override {
    assert(self == initiator_);
    forest_->mark_half(edge_, self);
    net.send(self, peer_, sim::Message(sim::Tag::kAddEdge));
  }

  void on_message(sim::Network&, NodeId self, NodeId from,
                  const sim::Message& msg) override {
    (void)from;
    (void)msg;
    assert(msg.tag == sim::Tag::kAddEdge && self == peer_ && from == initiator_);
    forest_->mark_half(edge_, self);
  }

 private:
  graph::MarkedForest* forest_;
  EdgeIdx edge_;
  NodeId initiator_;
  NodeId peer_;
};

// Snapshot of the cost counters, for per-operation deltas.
struct CostProbe {
  explicit CostProbe(const sim::Metrics& m) : before(m) {}
  void settle(const sim::Metrics& m, RepairOutcome& out) const {
    const sim::Metrics delta = m - before;
    out.messages = delta.messages;
    out.rounds = delta.rounds;
    out.broadcast_echoes = delta.broadcast_echoes;
  }
  void settle_basic(const sim::Metrics& m, std::uint64_t& out_messages,
                    std::uint64_t& out_rounds) const {
    const sim::Metrics delta = m - before;
    out_messages = delta.messages;
    out_rounds = delta.rounds;
  }
  sim::Metrics before;
};

}  // namespace

const char* action_name(RepairAction a) noexcept {
  switch (a) {
    case RepairAction::kNone: return "no-op";
    case RepairAction::kReplaced: return "replaced";
    case RepairAction::kBridge: return "bridge";
    case RepairAction::kMergedTrees: return "merged";
    case RepairAction::kSwapped: return "swapped";
    case RepairAction::kRejected: return "rejected";
    case RepairAction::kSearchFailed: return "search-failed";
    case RepairAction::kActionCount: break;
  }
  return "?";
}

std::optional<RepairAction> action_from_name(std::string_view name) noexcept {
  for (int a = 0; a < static_cast<int>(RepairAction::kActionCount); ++a) {
    if (name == action_name(static_cast<RepairAction>(a))) {
      return static_cast<RepairAction>(a);
    }
  }
  return std::nullopt;
}

NodeId DynamicForest::smaller_ext_endpoint(EdgeIdx e) const {
  const graph::Edge& ed = graph_->edge(e);
  return graph_->ext_id(ed.u) < graph_->ext_id(ed.v) ? ed.u : ed.v;
}

RepairOutcome DynamicForest::delete_edge(EdgeIdx e) {
  assert(graph_->alive(e));
  RepairOutcome out;
  const CostProbe probe(net_->metrics());

  const bool was_tree_edge = forest_->is_marked(e);
  const NodeId initiator = smaller_ext_endpoint(e);
  graph_->remove_edge(e);
  forest_->clear_edge(e);
  if (!was_tree_edge) {
    probe.settle(net_->metrics(), out);
    return out;  // kNone: the forest is untouched
  }

  out = repair_cut(initiator);
  probe.settle(net_->metrics(), out);
  return out;
}

RepairOutcome DynamicForest::repair_cut(NodeId initiator) {
  RepairOutcome out;
  proto::TreeOps ops(*net_, graph::TreeView(*forest_));

  graph::EdgeNum replacement = 0;
  bool found = false;
  bool exhausted = false;
  if (kind_ == ForestKind::kMst) {
    const FindMinResult res = find_min(ops, initiator);
    found = res.found;
    replacement = res.edge_num;
    exhausted = res.stats.budget_exhausted;
  } else {
    const FindAnyResult res = find_any(ops, initiator);
    found = res.found;
    replacement = res.edge_num;
    exhausted = res.stats.budget_exhausted;
  }

  if (!found) {
    out.action =
        exhausted ? RepairAction::kSearchFailed : RepairAction::kBridge;
    return out;
  }
  ops.add_edge(*forest_, initiator, replacement);
  out.action = RepairAction::kReplaced;
  out.edge = replacement;
  return out;
}

DynamicForest::BatchOutcome DynamicForest::delete_batch(
    const std::vector<EdgeIdx>& edges) {
  BatchOutcome out;
  const CostProbe probe(net_->metrics());

  // Apply all removals first; collect the endpoints orphaned by tree-edge
  // removals ("dirty" nodes -- the initiators of the repair).
  std::vector<char> dirty(graph_->node_count(), 0);
  for (EdgeIdx e : edges) {
    assert(graph_->alive(e));
    if (forest_->is_marked(e)) {
      ++out.tree_edges_removed;
      dirty[graph_->edge(e).u] = 1;
      dirty[graph_->edge(e).v] = 1;
    }
    graph_->remove_edge(e);
    forest_->clear_edge(e);
  }
  if (out.tree_edges_removed == 0) {
    probe.settle_basic(net_->metrics(), out.messages, out.rounds);
    return out;
  }

  // Boruvka completion over the damaged fragments only, with the default
  // (uncapped) FindMin / FindAny. A fragment goes clean when its search
  // certifies no leaving edge or after its found edge is installed and the
  // next phase re-checks the merged fragment. Every phase either merges or
  // cleans at least one fragment, so 2k+4 phases always suffice for the
  // MST; the ST's Monte Carlo searches and cycle lotteries get
  // proportionally more headroom.
  const std::size_t phase_cap =
      (kind_ == ForestKind::kMst ? 2 * out.tree_edges_removed + 4
                                 : 32 * (out.tree_edges_removed + 2));
  // Edges marked during phase p join the tree structure only from phase
  // p+1 (exactly Build MST's snapshot semantics), so concurrently repaired
  // fragments never see each other's half-installed merges.
  const std::uint32_t base_epoch = forest_->max_mark_epoch();
  proto::ProtoScratch scratch;
  for (std::size_t phase = 0; phase < phase_cap; ++phase) {
    if (std::find(dirty.begin(), dirty.end(), 1) == dirty.end()) break;
    const PhaseInfo info = boruvka_phase(
        *net_, *forest_, kind_, {}, {},
        base_epoch + static_cast<std::uint32_t>(phase) + 1,
        forest_->fragments(), scratch, &dirty);
    out.replacements += info.merges;
    ++out.phases;
  }

  probe.settle_basic(net_->metrics(), out.messages, out.rounds);
  return out;
}

DynamicForest::PathQuery DynamicForest::path_query(NodeId root,
                                                   graph::ExtId target_ext) {
  const graph::Graph& g = *graph_;
  proto::TreeOps ops(*net_, graph::TreeView(*forest_));

  // Echo value: [found, max.hi, max.lo, edge_num]. `found` flags that the
  // target lies in the echoing subtree; the max tracks the heaviest tree
  // edge on the partial path from the subtree's root down to the target.
  const proto::LocalFn local = [&g](NodeId self,
                                    std::span<const std::uint64_t> payload) {
    const bool is_target = g.ext_id(self) == payload[0];
    return Words{is_target ? 1u : 0u, 0, 0, 0};
  };
  const proto::CombineFn combine =
      [&g](NodeId self, NodeId child_node, Words& acc,
           std::span<const std::uint64_t> child) {
        if (child[0] == 0) return;  // target not in this child's subtree
        assert(acc[0] == 0 && "target found in two subtrees");
        acc[0] = 1;
        // Extend the child's partial path with the connecting tree edge,
        // looked up only here: once per node on the target path.
        const graph::EdgeIdx edge = *g.find_edge(self, child_node);
        util::u128 best = read_u128(child, 1);
        std::uint64_t best_edge = child[3];
        const util::u128 connecting = g.aug_weight(edge);
        if (connecting > best) {
          best = connecting;
          best_edge = g.edge_num(edge);
        }
        acc[1] = util::hi64(best);
        acc[2] = util::lo64(best);
        acc[3] = best_edge;
      };

  Words res = ops.broadcast_echo(
      root, Words{static_cast<std::uint64_t>(target_ext)}, local, combine);
  PathQuery q;
  q.target_in_tree = res[0] != 0;
  q.path_max = read_u128(res, 1);
  q.path_max_edge = res[3];
  return q;
}

void DynamicForest::cross_mark(EdgeIdx e, NodeId initiator, NodeId peer) {
  CrossMark proto(*forest_, e, initiator, peer);
  const NodeId participants[] = {initiator};
  net_->run(proto, participants);
}

void DynamicForest::broadcast_drop(NodeId root, graph::EdgeNum edge_num) {
  graph::MarkedForest& forest = *forest_;
  const graph::Graph& g = *graph_;
  proto::TreeOps ops(*net_, graph::TreeView(forest));
  ops.broadcast(root, Words{edge_num},
                [&forest, &g](NodeId self,
                              std::span<const std::uint64_t> payload) {
                  // Only the edge's two endpoints scan their rows.
                  if (!graph::edge_num_names(payload[0], g.ext_id(self),
                                             g.id_bits())) {
                    return;
                  }
                  for (const graph::Incidence& inc : g.incident(self)) {
                    if (g.edge_num(inc.edge) == payload[0]) {
                      forest.unmark_half(inc.edge, self);
                    }
                  }
                });
}

RepairOutcome DynamicForest::insert_edge(NodeId u, NodeId v, Weight w,
                                         EdgeIdx* out_edge) {
  RepairOutcome out;
  const CostProbe probe(net_->metrics());

  const EdgeIdx e = graph_->add_edge(u, v, w);
  if (out_edge != nullptr) *out_edge = e;

  const NodeId initiator = smaller_ext_endpoint(e);
  const NodeId peer = graph_->edge(e).other(initiator);

  // Note: the tree views below exclude e (it is unmarked), so the query
  // runs over the pre-insertion tree exactly as the paper prescribes.
  const PathQuery q = path_query(initiator, graph_->ext_id(peer));

  if (!q.target_in_tree) {
    cross_mark(e, initiator, peer);
    out.action = RepairAction::kMergedTrees;
  } else if (kind_ == ForestKind::kMst &&
             q.path_max > graph_->aug_weight(e)) {
    broadcast_drop(initiator, q.path_max_edge);
    cross_mark(e, initiator, peer);
    out.action = RepairAction::kSwapped;
    out.edge = q.path_max_edge;
  } else {
    out.action = RepairAction::kRejected;
  }
  probe.settle(net_->metrics(), out);
  return out;
}

RepairOutcome DynamicForest::change_weight(EdgeIdx e, Weight new_weight) {
  assert(graph_->alive(e));
  RepairOutcome out;
  const CostProbe probe(net_->metrics());

  const Weight old_weight = graph_->edge(e).weight;
  const bool marked = forest_->is_marked(e);
  graph_->set_weight(e, new_weight);

  if (kind_ == ForestKind::kSt || new_weight == old_weight ||
      (marked && new_weight < old_weight) ||
      (!marked && new_weight > old_weight)) {
    // ST ignores weights; a lighter tree edge stays in the MST (cut
    // property); a heavier non-tree edge stays out (cycle property).
    probe.settle(net_->metrics(), out);
    return out;
  }

  if (marked) {
    // Weight increase on a tree edge: repaired like a deletion, except the
    // edge survives as its own candidate replacement. Both endpoints
    // observe the change and unmark locally (no messages).
    const NodeId initiator = smaller_ext_endpoint(e);
    const graph::Edge& ed = graph_->edge(e);
    forest_->unmark_half(e, ed.u);
    forest_->unmark_half(e, ed.v);
    out = repair_cut(initiator);
  } else {
    // Weight decrease on a non-tree edge: repaired like an insertion.
    const NodeId initiator = smaller_ext_endpoint(e);
    const NodeId peer = graph_->edge(e).other(initiator);
    const PathQuery q = path_query(initiator, graph_->ext_id(peer));
    assert(q.target_in_tree && "non-tree edge endpoints share a tree");
    if (q.path_max > graph_->aug_weight(e)) {
      broadcast_drop(initiator, q.path_max_edge);
      cross_mark(e, initiator, peer);
      out.action = RepairAction::kSwapped;
      out.edge = q.path_max_edge;
    } else {
      out.action = RepairAction::kRejected;
    }
  }
  probe.settle(net_->metrics(), out);
  return out;
}

}  // namespace kkt::core
