// The communications network: an undirected weighted graph with unique
// external node IDs and (augmented-)unique edge weights.
//
// One read API, three storage backends (see docs/ARCHITECTURE.md):
//
//  * kAdjacency -- per-node vectors + growable edge table. Used by the
//    classic generators, the text loader, clone() and every workload that
//    changes topology.
//  * kFrozen    -- read-only CSR sections (graph/store.h): a .kkg file
//    mmap'd by FrozenStore::open, or the in-memory sections the seeded
//    igridlong / igeo generators build (graph/generators.h).
//  * kImplicit  -- K_n computed on demand by ImplicitCore
//    (graph/implicit.h) in O(n) resident state, even at n = 10^6.
//
// Mutation is adjacency-only: add_edge, remove_edge and set_weight accept
// only kAdjacency; kFrozen and kImplicit are read-only, so every one of
// their edges is alive. clone() copies any backend into adjacency, which
// is how a workload that mutates a frozen or implicit graph gets its
// mutable twin. Removed adjacency slots stay allocated but are marked
// dead, so EdgeIdx values held by callers remain stable; node count is
// fixed on every backend.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "graph/store.h"
#include "graph/types.h"
#include "util/rng.h"

namespace kkt::graph {

class ImplicitCore;

class Graph {
 public:
  enum class Backend { kAdjacency, kImplicit, kFrozen };

  // Creates a graph on n isolated nodes with distinct random external IDs
  // drawn from [1, 2^id_bits). id_bits == 0 selects the polynomial default
  // ~n^3 (the paper's ID space is {1, ..., n^c}; exponential identities are
  // first compressed to such a space with Karp-Rabin fingerprints, see
  // hashing/karp_rabin.h). Smaller IDs mean shorter edge numbers and a
  // smaller augmented-weight range for FindMin to search.
  Graph(std::size_t n, util::Rng& rng, int id_bits = 0);

  // Creates a graph with caller-provided external IDs (must be distinct,
  // in [1, kMaxExtId]).
  Graph(std::vector<ExtId> ext_ids);

  // Wraps implicit K_n (usually via make_implicit_graph).
  explicit Graph(std::unique_ptr<ImplicitCore> core);

  // Serves frozen CSR sections (a .kkg mapping or generated ones) as a
  // read-only graph.
  static Graph from_store(std::shared_ptr<const FrozenStore> store);

  Graph(Graph&&) noexcept;
  Graph& operator=(Graph&&) noexcept;
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;
  ~Graph();

  // Adjacency copy of any backend: the edge table by index (dead slots
  // included) and every incident(v) row verbatim, so every protocol runs
  // bit-identically on the copy.
  Graph clone() const;

  Backend backend() const noexcept { return backend_; }

  // --- topology mutation -------------------------------------------------
  // Inserts edge {u, v} with the given weight. Returns its index.
  // Precondition: u != v, no alive {u, v} edge exists.
  EdgeIdx add_edge(NodeId u, NodeId v, Weight w);

  // Deletes an edge. Its slot stays allocated but dead.
  void remove_edge(EdgeIdx e);

  // Capacity hint for bulk construction (generators): avoids repeated
  // reallocation of the edge table while inserting m edges.
  void reserve_edges(std::size_t m) { edges_.reserve(m); }

  // Changes the weight of an alive edge (augmented weight changes with it).
  void set_weight(EdgeIdx e, Weight w);

  // --- accessors ----------------------------------------------------------
  std::size_t node_count() const noexcept { return n_; }
  std::size_t edge_count() const noexcept { return alive_edges_; }
  std::size_t edge_slots() const noexcept {
    return backend_ == Backend::kAdjacency ? edges_.size() : edge_slots_;
  }

  // By value: the frozen and implicit backends synthesise the record (there
  // is no resident Edge array to reference into).
  Edge edge(EdgeIdx e) const {
    assert(e < edge_slots());
    if (backend_ == Backend::kAdjacency) return edges_[e];
    return edge_slow(e);
  }
  bool alive(EdgeIdx e) const {
    assert(e < edge_slots());
    return backend_ != Backend::kAdjacency || edges_[e].alive;
  }

  // Alive incident edges of v. The node's entire "local knowledge".
  // Span lifetime: an adjacency row stays valid until the next mutation of
  // that row; a frozen row (the CSR arena) for the graph's lifetime. An
  // implicit K_n row is computed into a small reusable buffer ring, so its
  // span survives ImplicitCore::kIncSlots - 1 queries of other rows only.
  std::span<const Incidence> incident(NodeId v) const {
    assert(v < n_);
    switch (backend_) {
      case Backend::kAdjacency:
        return adjacency_[v];
      case Backend::kFrozen:
        return frozen_arena_.subspan(frozen_offsets_[v], frozen_degree(v));
      case Backend::kImplicit:
        break;
    }
    return implicit_incident(v);
  }
  std::size_t degree(NodeId v) const {
    assert(v < n_);
    switch (backend_) {
      case Backend::kAdjacency:
        return adjacency_[v].size();
      case Backend::kFrozen:
        return frozen_degree(v);
      case Backend::kImplicit:
        break;
    }
    return n_ - 1;  // K_n
  }

  // Bumped whenever v's incidence row changes: add_edge and remove_edge
  // (the swap-with-last reorder of a removal included). Lets per-node
  // caches over a row -- MarkedForest's tree index -- invalidate node by
  // node instead of graph-wide. Weight changes keep the row.
  std::uint32_t row_version(NodeId v) const noexcept {
    return row_version_[v];
  }

  ExtId ext_id(NodeId v) const noexcept { return ext_ids_[v]; }

  // Width of the ID space (IDs < 2^id_bits) and of edge numbers.
  int id_bits() const noexcept { return id_bits_; }
  int edge_num_bits() const noexcept { return 2 * id_bits_; }

  EdgeNum edge_num(EdgeIdx e) const {
    const Edge ed = edge(e);
    return make_edge_num(ext_ids_[ed.u], ext_ids_[ed.v], id_bits_);
  }
  AugWeight aug_weight(EdgeIdx e) const {
    const Edge ed = edge(e);
    return make_aug_weight(
        ed.weight, make_edge_num(ext_ids_[ed.u], ext_ids_[ed.v], id_bits_),
        edge_num_bits());
  }
  // Smallest augmented weight exceeding every edge of raw weight <= w.
  AugWeight aug_upper_bound(Weight w) const noexcept {
    return make_aug_weight(w + 1, 0, edge_num_bits());
  }

  // The alive edge {u, v}, if present.
  // Inline: message handlers (flooding ST, cycle breaking, Add-Edge)
  // resolve {self, from} per message; the adjacency scan must not be a call.
  std::optional<EdgeIdx> find_edge(NodeId u, NodeId v) const {
    assert(u < node_count() && v < node_count());
    if (backend_ == Backend::kAdjacency) {
      const bool u_smaller = adjacency_[u].size() <= adjacency_[v].size();
      const auto& adj = u_smaller ? adjacency_[u] : adjacency_[v];
      const NodeId target = u_smaller ? v : u;
      for (const Incidence& inc : adj) {
        if (inc.peer == target) return inc.edge;
      }
      return std::nullopt;
    }
    return find_edge_slow(u, v);
  }

  // The augmented weight of the row entry `inc` of v, computed from the
  // entry itself: the weight from the edge record, the edge number from
  // the two external IDs. No edge decode (which on implicit K_n is a
  // binary search).
  AugWeight incident_aug(NodeId v, const Incidence& inc) const {
    return make_aug_weight(
        row_weight(v, inc),
        make_edge_num(ext_ids_[v], ext_ids_[inc.peer], id_bits_),
        edge_num_bits());
  }

  // The sorted row of v: the ascending augmented weights of v's alive
  // incident edges. The low edge_num_bits() of each name its edge, which
  // is all the range-filtered walks of TestOut / HP-TestOut / FindAny and
  // FindMin's maxWt read. Stored rows (adjacency and frozen) are sorted
  // lazily into one per-node cache and re-sorted after a mutation touching
  // v; the span stays valid until then. Implicit K_n rows are the
  // closed-form window [0, ~0] in ImplicitCore's window buffers, so the
  // span survives a handful of window queries only.
  std::span<const AugWeight> sorted_incident(NodeId v) const {
    assert(v < node_count());
    if (backend_ == Backend::kImplicit) {
      return implicit_window(v, 0, ~AugWeight{0});
    }
    if (sorted_stale_[v]) rebuild_sorted(v);
    return sorted_adj_[v];
  }

  // sorted_incident(v) from its first entry >= lo, for walks that stop at
  // the first entry past hi. Implicit K_n rows end at hi (their tail is
  // Theta(n)). A window that starts at or below the row's first entry --
  // every HP-TestOut window [0, x] and every FindMin's first TestOut -- is
  // the whole row, with no search; any other start is a branch-free binary
  // search (a branching one mispredicts on about half of its halvings).
  std::span<const AugWeight> sorted_incident_from(NodeId v, AugWeight lo,
                                                  AugWeight hi) const {
    if (backend_ == Backend::kImplicit) return implicit_window(v, lo, hi);
    const std::span<const AugWeight> s = sorted_incident(v);
    if (s.empty() || lo <= s.front()) return s;
    return s.subspan(partition_point(s, [lo](AugWeight a) { return a < lo; }));
  }

  // The window of sorted_incident(v) with aug weights in [lo, hi].
  std::span<const AugWeight> sorted_incident_range(NodeId v, AugWeight lo,
                                                   AugWeight hi) const {
    const std::span<const AugWeight> s = sorted_incident_from(v, lo, hi);
    return s.first(partition_point(s, [hi](AugWeight a) { return a <= hi; }));
  }

  // Largest raw weight / edge number over alive edges (0 if none).
  Weight max_weight() const;
  EdgeNum max_edge_num() const;

  // All alive edge indices, ascending (fresh vector; oracles, tests, and
  // pack_store). Implicit K_n at large n is deliberately unsupported here
  // (the vector would be Theta(m)); callers asserting scale use the
  // family's analytic structure instead.
  std::vector<EdgeIdx> alive_edge_indices() const;

 private:
  struct Raw {};  // tag for the uninitialised factory ctor
  explicit Graph(Raw);  // out-of-line: members need complete types

  void unlink_from_adjacency(NodeId v, EdgeIdx e);
  std::size_t frozen_degree(NodeId v) const {
    return frozen_offsets_[v + 1] - frozen_offsets_[v];
  }
  Weight row_weight(NodeId v, const Incidence& inc) const {
    switch (backend_) {
      case Backend::kAdjacency:
        return edges_[inc.edge].weight;
      case Backend::kFrozen:
        return frozen_edges_[inc.edge].weight;
      case Backend::kImplicit:
        break;
    }
    return implicit_weight(v, inc.peer);
  }
  // Index of the first entry of ascending `s` failing `pred` (s.size() if
  // none), as std::partition_point. Branch-free: each halving picks the
  // next base with a select (a conditional move), not a jump.
  template <typename Pred>
  static std::size_t partition_point(std::span<const AugWeight> s,
                                     Pred pred) {
    if (s.empty()) return 0;
    const AugWeight* base = s.data();
    std::size_t len = s.size();
    while (len > 1) {
      const std::size_t half = len / 2;
      base = pred(base[half]) ? base + half : base;
      len -= half;
    }
    return static_cast<std::size_t>(base - s.data()) +
           static_cast<std::size_t>(pred(*base));
  }
  void rebuild_sorted(NodeId v) const;  // slow path of sorted_incident
  void touch_sorted(NodeId u, NodeId v) {
    sorted_stale_[u] = 1;
    sorted_stale_[v] = 1;
  }
  void touch_rows(NodeId u, NodeId v) {
    ++row_version_[u];
    ++row_version_[v];
  }

  // Out-of-line backend paths (graph.cc); keeps ImplicitCore an incomplete
  // type here.
  Edge edge_slow(EdgeIdx e) const;
  std::span<const Incidence> implicit_incident(NodeId v) const;
  Weight implicit_weight(NodeId u, NodeId v) const;
  std::span<const AugWeight> implicit_window(NodeId v, AugWeight lo,
                                             AugWeight hi) const;
  std::optional<EdgeIdx> find_edge_slow(NodeId u, NodeId v) const;

  Backend backend_ = Backend::kAdjacency;
  std::size_t n_ = 0;

  // kAdjacency: resident edge table (dead slots keep indices stable) and
  // per-node rows.
  std::vector<Edge> edges_;
  std::vector<std::vector<Incidence>> adjacency_;

  // kFrozen: keeps the sections alive; rows and edge records are served
  // from them.
  std::shared_ptr<const FrozenStore> store_;
  std::span<const std::uint64_t> frozen_offsets_;
  std::span<const Incidence> frozen_arena_;
  std::span<const StoreEdge> frozen_edges_;

  // kImplicit: K_n, which serves its sorted rows as closed-form windows.
  std::unique_ptr<ImplicitCore> implicit_;

  std::vector<ExtId> ext_ids_;
  // Sorted rows of every stored row; stale rows re-sorted on demand (empty
  // for implicit K_n).
  mutable std::vector<std::vector<AugWeight>> sorted_adj_;
  mutable std::vector<char> sorted_stale_;
  std::vector<std::uint32_t> row_version_;  // see row_version()
  int id_bits_ = kMaxIdBits;
  std::size_t alive_edges_ = 0;
  std::size_t edge_slots_ = 0;  // kFrozen / kImplicit (else edges_.size())
};

// Draws n distinct external IDs uniformly from [1, 2^id_bits); id_bits == 0
// selects the polynomial default (~n^3, at least 2n, at most 2^31).
std::vector<ExtId> random_ext_ids(std::size_t n, util::Rng& rng,
                                  int id_bits = 0);

// Width of the ID space of `ids`: the fewest bits b with every ID < 2^b.
int id_bits_of(std::span<const ExtId> ids);

}  // namespace kkt::graph
