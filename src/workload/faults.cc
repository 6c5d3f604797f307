#include "workload/faults.h"

#include <algorithm>

#include "graph/mst_oracle.h"
#include "util/rng.h"

namespace kkt::workload {
namespace {

using graph::EdgeIdx;
using graph::NodeId;
using graph::Weight;

// Deletes the edges (recording erase members) from the model and returns
// the heal event that restores them with their original weights.
FaultEvent cut_edges(graph::Graph& model, const std::vector<EdgeIdx>& edges,
                     FaultKind kind, FaultEvent* damage) {
  FaultEvent heal{FaultKind::kHeal, {}};
  damage->kind = kind;
  damage->members.reserve(edges.size());
  heal.members.reserve(edges.size());
  for (EdgeIdx e : edges) {
    const graph::Edge& ed = model.edge(e);
    damage->members.push_back(core::UpdateOp::erase(ed.u, ed.v));
    heal.members.push_back(core::UpdateOp::insert(ed.u, ed.v, ed.weight));
  }
  for (EdgeIdx e : edges) model.remove_edge(e);
  return heal;
}

// k distinct alive edges, drawn by partial Fisher-Yates over the alive set.
std::vector<EdgeIdx> sample_alive(const graph::Graph& model, std::size_t k,
                                  util::Rng& rng) {
  std::vector<EdgeIdx> alive = model.alive_edge_indices();
  if (k > alive.size()) k = alive.size();
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + rng.below(alive.size() - i);
    std::swap(alive[i], alive[j]);
  }
  alive.resize(k);
  return alive;
}

// BFS ball of `want` nodes around `center` over the current model; on the
// geometric/grid families hop distance tracks metric distance, so the ball
// is a genuinely regional outage.
std::vector<char> grow_ball(const graph::Graph& model, NodeId center,
                            std::size_t want) {
  std::vector<char> in_ball(model.node_count(), 0);
  std::vector<NodeId> queue;
  queue.push_back(center);
  in_ball[center] = 1;
  std::size_t got = 1;
  for (std::size_t head = 0; head < queue.size() && got < want; ++head) {
    for (const graph::Incidence& inc : model.incident(queue[head])) {
      if (in_ball[inc.peer] != 0) continue;
      in_ball[inc.peer] = 1;
      queue.push_back(inc.peer);
      if (++got >= want) break;
    }
  }
  return in_ball;
}

// Every alive edge with at least one endpoint inside the ball, ascending.
std::vector<EdgeIdx> ball_incident_edges(const graph::Graph& model,
                                         const std::vector<char>& in_ball) {
  std::vector<EdgeIdx> edges;
  for (EdgeIdx e : model.alive_edge_indices()) {
    const graph::Edge& ed = model.edge(e);
    if (in_ball[ed.u] != 0 || in_ball[ed.v] != 0) edges.push_back(e);
  }
  return edges;
}

// The most balanced tree edge of the model's MSF: the edge whose removal
// minimizes the larger side of the split, plus the side membership of the
// split (1 = the subtree under the edge's child endpoint). Returns false
// when the model has no tree edge.
bool balanced_separator(const graph::Graph& model, util::Rng& rng,
                        std::vector<char>* side) {
  const std::vector<EdgeIdx> msf = graph::kruskal_msf(model);
  if (msf.empty()) return false;
  const std::size_t n = model.node_count();

  // Forest adjacency + rooted orientation (iterative DFS per component).
  std::vector<std::vector<std::pair<NodeId, EdgeIdx>>> adj(n);
  for (EdgeIdx e : msf) {
    const graph::Edge& ed = model.edge(e);
    adj[ed.u].push_back({ed.v, e});
    adj[ed.v].push_back({ed.u, e});
  }
  std::vector<NodeId> parent(n, graph::kNoNode);
  std::vector<EdgeIdx> parent_edge(n, graph::kNoEdge);
  std::vector<NodeId> order;  // preorder; reversed = leaves-first
  order.reserve(n);
  std::vector<char> seen(n, 0);
  std::vector<std::size_t> comp_size(n, 0);  // per DFS root
  std::vector<NodeId> comp_root(n, graph::kNoNode);
  for (NodeId r = 0; r < n; ++r) {
    if (seen[r] != 0 || adj[r].empty()) continue;
    const std::size_t first = order.size();
    seen[r] = 1;
    order.push_back(r);
    for (std::size_t head = first; head < order.size(); ++head) {
      const NodeId v = order[head];
      comp_root[v] = r;
      for (const auto& [peer, e] : adj[v]) {
        if (seen[peer] != 0) continue;
        seen[peer] = 1;
        parent[peer] = v;
        parent_edge[peer] = e;
        order.push_back(peer);
      }
    }
    comp_size[r] = order.size() - first;
  }

  // Subtree sizes, leaves-first.
  std::vector<std::size_t> sub(n, 1);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (parent[*it] != graph::kNoNode) sub[parent[*it]] += sub[*it];
  }

  // Best split: minimize the larger side within the edge's own component.
  NodeId best_child = graph::kNoNode;
  std::size_t best_score = n + 1;
  for (const NodeId v : order) {
    if (parent_edge[v] == graph::kNoEdge) continue;
    const std::size_t total = comp_size[comp_root[v]];
    const std::size_t larger = std::max(sub[v], total - sub[v]);
    if (larger < best_score) {
      best_score = larger;
      best_child = v;
    }
  }
  if (best_child == graph::kNoNode) return false;
  (void)rng;  // the split is deterministic; rng reserved for tie policy

  // Side 1 = the subtree hanging under best_child (BFS avoiding the cut
  // edge), side 0 = the rest of the world.
  side->assign(n, 0);
  std::vector<NodeId> queue{best_child};
  (*side)[best_child] = 1;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId v = queue[head];
    for (const auto& [peer, e] : adj[v]) {
      if (e == parent_edge[best_child]) continue;  // never cross the cut
      if ((*side)[peer] != 0) continue;
      (*side)[peer] = 1;
      queue.push_back(peer);
    }
  }
  return true;
}

// One ordinary within-side churn op against the model (side == nullptr
// means unrestricted). Returns nullopt when no legal move was found.
std::optional<core::UpdateOp> churn_op(graph::Graph& model,
                                       const std::vector<char>* side,
                                       Weight max_weight, util::Rng& rng) {
  const std::size_t n = model.node_count();
  for (int attempt = 0; attempt < 8; ++attempt) {
    const std::uint64_t r = rng.below(3);
    if (r == 0) {  // insert (within one side when restricted)
      for (int tries = 0; tries < 64; ++tries) {
        const auto u = static_cast<NodeId>(rng.below(n));
        const auto v = static_cast<NodeId>(rng.below(n));
        if (u == v || model.find_edge(u, v).has_value()) continue;
        if (side != nullptr && (*side)[u] != (*side)[v]) continue;
        const Weight w = 1 + rng.below(max_weight);
        model.add_edge(u, v, w);
        return core::UpdateOp::insert(u, v, w);
      }
    } else if (model.edge_count() > 0) {
      // After a partition cut every alive edge is within-side already.
      const auto alive = model.alive_edge_indices();
      const EdgeIdx target = alive[rng.below(alive.size())];
      const graph::Edge& ed = model.edge(target);
      if (r == 1) {
        const core::UpdateOp op = core::UpdateOp::erase(ed.u, ed.v);
        model.remove_edge(target);
        return op;
      }
      const Weight w = 1 + rng.below(max_weight);
      model.set_weight(target, w);
      return core::UpdateOp::reweigh(ed.u, ed.v, w);
    }
  }
  return std::nullopt;
}

void heal_into_model(graph::Graph& model, const FaultEvent& heal) {
  for (const core::UpdateOp& op : heal.members) {
    model.add_edge(op.u, op.v, op.weight);
  }
}

}  // namespace

const char* fault_kind_name(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::kOp: return "op";
    case FaultKind::kBatchDelete: return "batch";
    case FaultKind::kRegional: return "regional";
    case FaultKind::kPartitionCut: return "cut";
    case FaultKind::kHeal: return "heal";
  }
  return "?";
}

std::optional<FaultKind> fault_kind_from_name(std::string_view name) noexcept {
  for (int k = 0; k < kFaultKindCount; ++k) {
    if (name == fault_kind_name(static_cast<FaultKind>(k))) {
      return static_cast<FaultKind>(k);
    }
  }
  return std::nullopt;
}

const char* fault_model_name(FaultModel m) noexcept {
  switch (m) {
    case FaultModel::kBatch: return "batch";
    case FaultModel::kRegional: return "regional";
    case FaultModel::kPartition: return "partition";
  }
  return "?";
}

std::optional<FaultModel> fault_model_from_name(
    std::string_view name) noexcept {
  for (int m = 0; m < kFaultModelCount; ++m) {
    if (name == fault_model_name(static_cast<FaultModel>(m))) {
      return static_cast<FaultModel>(m);
    }
  }
  return std::nullopt;
}

FaultTrace generate_faults(const graph::Graph& start, const FaultSpec& spec,
                           std::uint64_t seed) {
  FaultTrace t;
  t.name = fault_model_name(spec.model);
  t.seed = seed;

  util::Rng rng(seed);
  graph::Graph model = start.clone();  // evolves with the emitted events
  const std::size_t n = model.node_count();
  if (n < 2) return t;

  for (int i = 0; i < spec.events; ++i) {
    switch (spec.model) {
      case FaultModel::kBatch: {
        const std::vector<EdgeIdx> victims = sample_alive(
            model, static_cast<std::size_t>(std::max(spec.batch_k, 1)), rng);
        if (victims.empty()) return t;
        FaultEvent damage;
        FaultEvent heal =
            cut_edges(model, victims, FaultKind::kBatchDelete, &damage);
        t.events.push_back(std::move(damage));
        heal_into_model(model, heal);
        t.events.push_back(std::move(heal));
        break;
      }
      case FaultModel::kRegional: {
        const auto want = std::max<std::size_t>(
            1, static_cast<std::size_t>(spec.region_fraction *
                                        static_cast<double>(n)));
        const auto center = static_cast<NodeId>(rng.below(n));
        const std::vector<char> in_ball = grow_ball(model, center, want);
        const std::vector<EdgeIdx> victims =
            ball_incident_edges(model, in_ball);
        if (victims.empty()) break;  // isolated center; try next event
        FaultEvent damage;
        FaultEvent heal =
            cut_edges(model, victims, FaultKind::kRegional, &damage);
        t.events.push_back(std::move(damage));
        heal_into_model(model, heal);
        t.events.push_back(std::move(heal));
        break;
      }
      case FaultModel::kPartition: {
        std::vector<char> side;
        if (!balanced_separator(model, rng, &side)) return t;
        std::vector<EdgeIdx> crossing;
        for (EdgeIdx e : model.alive_edge_indices()) {
          const graph::Edge& ed = model.edge(e);
          if (side[ed.u] != side[ed.v]) crossing.push_back(e);
        }
        if (crossing.empty()) break;
        FaultEvent damage;
        FaultEvent heal =
            cut_edges(model, crossing, FaultKind::kPartitionCut, &damage);
        t.events.push_back(std::move(damage));
        // Churn both sides while the network is split: ordinary kOp events
        // whose inserts never bridge the cut.
        for (int c = 0; c < spec.churn_ops; ++c) {
          if (auto op = churn_op(model, &side, spec.max_weight, rng)) {
            t.events.push_back(FaultEvent::op(*op));
          }
        }
        // Partition-and-*heal*: reconnection is the point of this model.
        heal_into_model(model, heal);
        t.events.push_back(std::move(heal));
        break;
      }
    }
  }
  return t;
}

FaultRecord apply_fault(core::MaintenanceSession& session,
                        const FaultEvent& event) {
  FaultRecord rec;
  rec.kind = event.kind;
  rec.requested = event.members.size();
  switch (event.kind) {
    case FaultKind::kBatchDelete:
    case FaultKind::kRegional:
    case FaultKind::kPartitionCut: {
      const core::BatchRecord br = session.apply_batch(event.members);
      rec.applied = br.applied;
      rec.tree_edges_removed = br.outcome.tree_edges_removed;
      rec.replacements = br.outcome.replacements;
      rec.phases = br.outcome.phases;
      rec.components_before = br.components_before;
      rec.components_after = br.components_after;
      rec.cost = br.cost;
      rec.oracle_ok = br.oracle_ok;
      break;
    }
    case FaultKind::kOp:
    case FaultKind::kHeal: {
      // Heal-time reconciliation: members go through the ordinary repair
      // path one by one (each insert may merge two fragments back), with
      // the event's cost and verdicts aggregated over the members.
      rec.components_before = session.forest_components();
      rec.oracle_ok = true;
      for (const core::UpdateOp& op : event.members) {
        const core::OpRecord& r = session.apply(op);
        if (r.applied) ++rec.applied;
        rec.cost += r.cost;
        rec.oracle_ok = rec.oracle_ok && r.oracle_ok;
      }
      rec.components_after = session.forest_components();
      break;
    }
  }
  return rec;
}

}  // namespace kkt::workload
