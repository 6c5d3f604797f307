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

int Graph::infer_id_bits(const std::vector<ExtId>& ids) {
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
  id_bits_ = infer_id_bits(ext_ids_);
}

Graph::Graph(std::vector<ExtId> ext_ids)
    : n_(ext_ids.size()),
      adjacency_(ext_ids.size()),
      ext_ids_(std::move(ext_ids)),
      sorted_adj_(ext_ids_.size()),
      sorted_stale_(ext_ids_.size(), 1),
      row_version_(ext_ids_.size(), 0) {
  id_bits_ = infer_id_bits(ext_ids_);
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
  alive_edges_ = implicit_->alive_count();
  edge_slots_ = implicit_->edge_slots();
  row_version_.assign(n_, 0);
}

Graph Graph::freeze_csr(const Graph& src) {
  assert(src.backend_ != Backend::kImplicit &&
         "materialize_implicit first, then freeze");
  Graph g{Raw{}};
  g.backend_ = Backend::kCsr;
  g.n_ = src.node_count();
  g.ext_ids_ = src.ext_ids_;
  g.id_bits_ = src.id_bits_;
  g.alive_edges_ = src.edge_count();

  const std::size_t slots = src.edge_slots();
  g.edges_.reserve(slots);
  for (EdgeIdx e = 0; e < slots; ++e) {
    g.edges_.push_back(src.edge(e));  // carries the alive flag of dead slots
  }

  g.csr_offsets_own_.reserve(g.n_ + 1);
  g.csr_row_len_.reserve(g.n_);
  std::uint64_t running = 0;
  g.csr_offsets_own_.push_back(0);
  for (NodeId v = 0; v < g.n_; ++v) {
    const std::size_t len = src.incident(v).size();
    running += len;
    g.csr_offsets_own_.push_back(running);
    g.csr_row_len_.push_back(static_cast<std::uint32_t>(len));
  }
  g.csr_arena_own_.reserve(running);
  for (NodeId v = 0; v < g.n_; ++v) {
    for (const Incidence& inc : src.incident(v)) {
      g.csr_arena_own_.push_back(inc);
    }
  }
  // Spans point into the heap buffers, which survive moves of the vectors.
  g.csr_offsets_ = g.csr_offsets_own_;
  g.csr_arena_ = g.csr_arena_own_;
  g.sorted_adj_.resize(g.n_);
  g.sorted_stale_.assign(g.n_, 1);
  g.row_version_.assign(g.n_, 0);
  return g;
}

Graph Graph::from_store(std::shared_ptr<const MappedStore> store) {
  assert(store != nullptr);
  Graph g{Raw{}};
  g.backend_ = Backend::kMapped;
  g.n_ = store->node_count();
  g.id_bits_ = store->id_bits();
  g.alive_edges_ = store->edge_count();
  g.edge_slots_ = store->edge_count();
  g.ext_ids_.assign(store->ext_ids().begin(), store->ext_ids().end());
  g.csr_offsets_ = store->offsets();
  g.csr_arena_ = store->arena();
  g.mapped_edges_ = store->edges();
  g.csr_row_len_.reserve(g.n_);
  for (NodeId v = 0; v < g.n_; ++v) {
    g.csr_row_len_.push_back(static_cast<std::uint32_t>(
        store->offsets()[v + 1] - store->offsets()[v]));
  }
  g.sorted_adj_.resize(g.n_);
  g.sorted_stale_.assign(g.n_, 1);
  g.row_version_.assign(g.n_, 0);
  g.store_ = std::move(store);
  return g;
}

Graph Graph::clone() const {
  assert(backend_ != Backend::kImplicit && "implicit graphs are not clonable");
  Graph g{Raw{}};
  g.backend_ = backend_;
  g.n_ = n_;
  g.edges_ = edges_;
  g.adjacency_ = adjacency_;
  g.csr_offsets_own_ = csr_offsets_own_;
  g.csr_arena_own_ = csr_arena_own_;
  g.csr_row_len_ = csr_row_len_;
  g.store_ = store_;
  g.mapped_edges_ = mapped_edges_;
  if (backend_ == Backend::kCsr) {
    g.csr_offsets_ = g.csr_offsets_own_;
    g.csr_arena_ = g.csr_arena_own_;
  } else {
    g.csr_offsets_ = csr_offsets_;  // mapped: spans into the shared mapping
    g.csr_arena_ = csr_arena_;
  }
  g.ext_ids_ = ext_ids_;
  g.sorted_adj_.resize(n_);
  g.sorted_stale_.assign(n_, 1);
  g.row_version_.assign(n_, 0);
  g.id_bits_ = id_bits_;
  g.alive_edges_ = alive_edges_;
  g.edge_slots_ = edge_slots_;
  return g;
}

// Out-of-line: ImplicitCore / MappedStore are incomplete in graph.h.
Graph::Graph(Raw) {}
Graph::Graph(Graph&&) noexcept = default;
Graph& Graph::operator=(Graph&&) noexcept = default;
Graph::~Graph() = default;

EdgeIdx Graph::add_edge(NodeId u, NodeId v, Weight w) {
  assert(backend_ == Backend::kAdjacency &&
         "only the adjacency backend grows");
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
  assert(e < edge_slots() && alive(e));
  switch (backend_) {
    case Backend::kAdjacency: {
      Edge& ed = edges_[e];
      ed.alive = false;
      unlink_from_adjacency(ed.u, e);
      unlink_from_adjacency(ed.v, e);
      touch_sorted(ed.u, ed.v);
      touch_rows(ed.u, ed.v);
      break;
    }
    case Backend::kCsr: {
      Edge& ed = edges_[e];
      ed.alive = false;
      csr_unlink(ed.u, e);
      csr_unlink(ed.v, e);
      touch_sorted(ed.u, ed.v);
      touch_rows(ed.u, ed.v);
      break;
    }
    case Backend::kImplicit: {
      const Edge ed = implicit_->edge(e);
      implicit_->remove_edge(e);  // overlays (and reorders) both rows
      touch_rows(ed.u, ed.v);
      break;
    }
    case Backend::kMapped:
      assert(false && "mapped stores are read-only");
      return;
  }
  --alive_edges_;
}

void Graph::set_weight(EdgeIdx e, Weight w) {
  assert(backend_ == Backend::kAdjacency || backend_ == Backend::kCsr);
  assert(e < edges_.size() && edges_[e].alive);
  edges_[e].weight = w;
  touch_sorted(edges_[e].u, edges_[e].v);
}

Edge Graph::edge_slow(EdgeIdx e) const {
  if (backend_ == Backend::kMapped) {
    const StoreEdge ed = mapped_edges_[e];
    return Edge{ed.u, ed.v, ed.weight, /*alive=*/true};
  }
  return implicit_->edge(e);
}

bool Graph::implicit_alive(EdgeIdx e) const { return implicit_->alive(e); }

std::span<const Incidence> Graph::implicit_incident(NodeId v) const {
  return implicit_->incident(v);
}

std::size_t Graph::implicit_degree(NodeId v) const {
  return implicit_->degree(v);
}

std::span<const SortedIncidence> Graph::implicit_sorted(NodeId v) const {
  return implicit_->sorted_incident(v);
}

std::span<const SortedIncidence> Graph::implicit_sorted_range(
    NodeId v, AugWeight lo, AugWeight hi) const {
  return implicit_->sorted_incident_range(v, lo, hi);
}

std::optional<EdgeIdx> Graph::find_edge_slow(NodeId u, NodeId v) const {
  if (backend_ == Backend::kImplicit) return implicit_->find_edge(u, v);
  // CSR / mapped: scan the shorter row, same as the adjacency fast path.
  const bool u_smaller = csr_row_len_[u] <= csr_row_len_[v];
  const std::span<const Incidence> row = incident(u_smaller ? u : v);
  const NodeId target = u_smaller ? v : u;
  for (const Incidence& inc : row) {
    if (inc.peer == target) return inc.edge;
  }
  return std::nullopt;
}

void Graph::rebuild_sorted(NodeId v) const {
  std::vector<SortedIncidence>& out = sorted_adj_[v];
  out.clear();
  const std::span<const Incidence> row = incident(v);
  out.reserve(row.size());
  for (const Incidence& inc : row) {
    out.push_back(SortedIncidence{aug_weight(inc.edge), inc.edge, inc.peer});
  }
  // Augmented weights are unique, so this order is total and deterministic.
  std::sort(out.begin(), out.end(),
            [](const SortedIncidence& a, const SortedIncidence& b) {
              return a.aug < b.aug;
            });
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

// Same swap-with-last removal as the adjacency backend, applied in-row: the
// row shrinks by one slot (the arena keeps its footprint), and the surviving
// order matches what unlink_from_adjacency would have produced.
void Graph::csr_unlink(NodeId v, EdgeIdx e) {
  Incidence* row = csr_arena_own_.data() + csr_offsets_[v];
  std::uint32_t& len = csr_row_len_[v];
  for (std::uint32_t i = 0; i < len; ++i) {
    if (row[i].edge == e) {
      row[i] = row[len - 1];
      --len;
      return;
    }
  }
  assert(false && "edge not found in CSR row");
}

std::optional<NodeId> Graph::node_of_ext(ExtId id) const {
  for (NodeId v = 0; v < node_count(); ++v) {
    if (ext_ids_[v] == id) return v;
  }
  return std::nullopt;
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
  if (backend_ == Backend::kImplicit) return implicit_->alive_edge_indices();
  std::vector<EdgeIdx> out;
  out.reserve(alive_edges_);
  const std::size_t slots = edge_slots();
  for (EdgeIdx e = 0; e < slots; ++e) {
    if (alive(e)) out.push_back(e);
  }
  return out;
}

}  // namespace kkt::graph
