#include "graph/graph.h"

#include <algorithm>
#include <unordered_set>

#include "graph/implicit.h"
#include "graph/store.h"

namespace kkt::graph {

std::vector<ExtId> random_ext_ids(std::size_t n, util::Rng& rng,
                                  int id_bits) {
  assert(n >= 1 && n <= kMaxExtId / 2);
  if (id_bits == 0) {
    // Polynomial ID space ~ n^3: collision-free sampling stays fast
    // (2^id_bits >= 4n) and edge numbers stay short.
    int n_bits = 1;
    while ((std::size_t{1} << n_bits) < n) ++n_bits;
    id_bits = std::min(31, std::max(8, 3 * n_bits + 2));
  }
  assert(id_bits >= 1 && id_bits <= 31);
  const ExtId hi = static_cast<ExtId>((std::uint64_t{1} << id_bits) - 1);
  assert(static_cast<std::uint64_t>(hi) >= 2 * n);
  std::unordered_set<ExtId> seen;
  std::vector<ExtId> ids;
  ids.reserve(n);
  while (ids.size() < n) {
    const auto id = static_cast<ExtId>(rng.range(1, hi));
    if (seen.insert(id).second) ids.push_back(id);
  }
  return ids;
}

int id_bits_of(std::span<const ExtId> ids) {
  ExtId mx = 1;
  for (ExtId id : ids) mx = std::max(mx, id);
  int bits = 1;
  while ((ExtId{1} << bits) <= mx) ++bits;
  return bits;
}

Graph::Graph(std::size_t n, util::Rng& rng, int id_bits)
    : n_(n),
      adjacency_(n),
      ext_ids_(random_ext_ids(n, rng, id_bits)),
      sorted_adj_(n),
      sorted_stale_(n, 1),
      row_version_(n, 0) {
  id_bits_ = id_bits_of(ext_ids_);
}

Graph::Graph(std::vector<ExtId> ext_ids)
    : n_(ext_ids.size()),
      adjacency_(ext_ids.size()),
      ext_ids_(std::move(ext_ids)),
      sorted_adj_(ext_ids_.size()),
      sorted_stale_(ext_ids_.size(), 1),
      row_version_(ext_ids_.size(), 0) {
  id_bits_ = id_bits_of(ext_ids_);
#ifndef NDEBUG
  std::unordered_set<ExtId> seen;
  for (ExtId id : ext_ids_) {
    assert(id >= 1 && id <= kMaxExtId);
    assert(seen.insert(id).second && "external IDs must be distinct");
  }
#endif
}

Graph::Graph(std::unique_ptr<ImplicitCore> core)
    : backend_(Backend::kImplicit), implicit_(std::move(core)) {
  assert(implicit_ != nullptr);
  n_ = implicit_->node_count();
  ext_ids_ = implicit_->ext_ids();
  id_bits_ = implicit_->id_bits();
  alive_edges_ = implicit_->edge_slots();
  edge_slots_ = implicit_->edge_slots();
  row_version_.assign(n_, 0);
}

Graph Graph::from_store(std::shared_ptr<const FrozenStore> store) {
  assert(store != nullptr);
  Graph g{Raw{}};
  g.backend_ = Backend::kFrozen;
  g.n_ = store->node_count();
  g.id_bits_ = store->id_bits();
  g.alive_edges_ = store->edge_count();
  g.edge_slots_ = store->edge_count();
  g.ext_ids_.assign(store->ext_ids().begin(), store->ext_ids().end());
  g.frozen_offsets_ = store->offsets();
  g.frozen_arena_ = store->arena();
  g.frozen_edges_ = store->edges();
  g.sorted_adj_.resize(g.n_);
  g.sorted_stale_.assign(g.n_, 1);
  g.row_version_.assign(g.n_, 0);
  g.store_ = std::move(store);
  return g;
}

Graph Graph::clone() const {
  Graph g{Raw{}};
  g.n_ = n_;
  const std::size_t slots = edge_slots();
  g.edges_.reserve(slots);
  for (EdgeIdx e = 0; e < slots; ++e) g.edges_.push_back(edge(e));
  g.adjacency_.resize(n_);
  for (NodeId v = 0; v < n_; ++v) {
    const std::span<const Incidence> row = incident(v);
    g.adjacency_[v].assign(row.begin(), row.end());
  }
  g.ext_ids_ = ext_ids_;
  g.sorted_adj_.resize(n_);
  g.sorted_stale_.assign(n_, 1);
  g.row_version_.assign(n_, 0);
  g.id_bits_ = id_bits_;
  g.alive_edges_ = alive_edges_;
  return g;
}

// Out-of-line: ImplicitCore / FrozenStore are incomplete in graph.h.
Graph::Graph(Raw) {}
Graph::Graph(Graph&&) noexcept = default;
Graph& Graph::operator=(Graph&&) noexcept = default;
Graph::~Graph() = default;

EdgeIdx Graph::add_edge(NodeId u, NodeId v, Weight w) {
  assert(backend_ == Backend::kAdjacency && "only adjacency graphs mutate");
  assert(u < node_count() && v < node_count() && u != v);
  assert(!find_edge(u, v).has_value() && "parallel edges are not allowed");
  const auto e = static_cast<EdgeIdx>(edges_.size());
  edges_.push_back(Edge{u, v, w, /*alive=*/true});
  adjacency_[u].push_back(Incidence{v, e});
  adjacency_[v].push_back(Incidence{u, e});
  touch_sorted(u, v);
  touch_rows(u, v);
  ++alive_edges_;
  return e;
}

void Graph::remove_edge(EdgeIdx e) {
  assert(backend_ == Backend::kAdjacency && "only adjacency graphs mutate");
  assert(e < edges_.size() && edges_[e].alive);
  Edge& ed = edges_[e];
  ed.alive = false;
  unlink_from_adjacency(ed.u, e);
  unlink_from_adjacency(ed.v, e);
  touch_sorted(ed.u, ed.v);
  touch_rows(ed.u, ed.v);
  --alive_edges_;
}

void Graph::set_weight(EdgeIdx e, Weight w) {
  assert(backend_ == Backend::kAdjacency && "only adjacency graphs mutate");
  assert(e < edges_.size() && edges_[e].alive);
  edges_[e].weight = w;
  touch_sorted(edges_[e].u, edges_[e].v);
}

Edge Graph::edge_slow(EdgeIdx e) const {
  if (backend_ == Backend::kFrozen) {
    const StoreEdge ed = frozen_edges_[e];
    return Edge{ed.u, ed.v, ed.weight, /*alive=*/true};
  }
  return implicit_->edge(e);
}

std::span<const Incidence> Graph::implicit_incident(NodeId v) const {
  return implicit_->incident(v);
}

Weight Graph::implicit_weight(NodeId u, NodeId v) const {
  return implicit_->weight_of(u, v);
}

std::span<const AugWeight> Graph::implicit_window(NodeId v, AugWeight lo,
                                                  AugWeight hi) const {
  return implicit_->sorted_incident_range(v, lo, hi);
}

std::optional<EdgeIdx> Graph::find_edge_slow(NodeId u, NodeId v) const {
  if (backend_ == Backend::kImplicit) return implicit_->find_edge(u, v);
  // Frozen: scan the shorter row, same as the adjacency fast path.
  const bool u_smaller = frozen_degree(u) <= frozen_degree(v);
  const std::span<const Incidence> row = incident(u_smaller ? u : v);
  const NodeId target = u_smaller ? v : u;
  for (const Incidence& inc : row) {
    if (inc.peer == target) return inc.edge;
  }
  return std::nullopt;
}

void Graph::rebuild_sorted(NodeId v) const {
  std::vector<AugWeight>& out = sorted_adj_[v];
  out.clear();
  const std::span<const Incidence> row = incident(v);
  out.reserve(row.size());
  // The weight gather reads one edge record per entry, in row order, from
  // an m-sized table: a cache miss per entry on a large random graph.
  // Prefetching the record kAhead entries on overlaps those misses.
  constexpr std::size_t kAhead = 8;
  const bool adjacency = backend_ == Backend::kAdjacency;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i + kAhead < row.size()) {
      const EdgeIdx ahead = row[i + kAhead].edge;
      if (adjacency) {
        __builtin_prefetch(edges_.data() + ahead);
      } else {
        __builtin_prefetch(frozen_edges_.data() + ahead);
      }
    }
    out.push_back(incident_aug(v, row[i]));
  }
  // Augmented weights are unique, so this order is total and deterministic.
  std::sort(out.begin(), out.end());
  sorted_stale_[v] = 0;
}

void Graph::unlink_from_adjacency(NodeId v, EdgeIdx e) {
  auto& adj = adjacency_[v];
  auto it = std::find_if(adj.begin(), adj.end(),
                         [e](const Incidence& inc) { return inc.edge == e; });
  assert(it != adj.end());
  *it = adj.back();
  adj.pop_back();
}

Weight Graph::max_weight() const {
  if (backend_ == Backend::kImplicit) return implicit_->max_weight();
  Weight best = 0;
  const std::size_t slots = edge_slots();
  for (EdgeIdx e = 0; e < slots; ++e) {
    if (alive(e)) best = std::max(best, edge(e).weight);
  }
  return best;
}

EdgeNum Graph::max_edge_num() const {
  if (backend_ == Backend::kImplicit) return implicit_->max_edge_num();
  EdgeNum best = 0;
  const std::size_t slots = edge_slots();
  for (EdgeIdx e = 0; e < slots; ++e) {
    if (alive(e)) best = std::max(best, edge_num(e));
  }
  return best;
}

std::vector<EdgeIdx> Graph::alive_edge_indices() const {
  std::vector<EdgeIdx> out;
  out.reserve(alive_edges_);
  const std::size_t slots = edge_slots();
  for (EdgeIdx e = 0; e < slots; ++e) {
    if (alive(e)) out.push_back(e);
  }
  return out;
}

}  // namespace kkt::graph
