// Implicit edge families: graphs whose incidence lists are *computed* from
// (n, seed) instead of stored. The point is scale -- K_n at n = 10^6 has
// ~5*10^11 edges (8 TB materialised), but every query a protocol makes
// (incident row, aug-sorted window, find_edge, edge decode) is answerable
// from O(n) precomputed arrays plus O(1) work per emitted entry.
//
// Three families:
//  * kComplete    -- K_n. Weights follow a "latin square" rule
//                    w(u, v) = 1 + (key(u) + key(v)) mod maxw with
//                    key(v) = hash(seed, v) mod maxw, so a node's
//                    aug-weight-sorted incidence row is a rotation of one
//                    global node order (sorted by (key, ext)); any
//                    sorted_incident_range window is emitted from <= 2
//                    contiguous segments of that order in O(log n + |out|).
//  * kGridLong    -- sqrt(n) x sqrt(n) grid plus `long_links` random long
//                    links per node (small-world); sparse, m = Theta(n).
//  * kGeometric   -- random points on the unit square (integer fixed-point
//                    coordinates), edges below a radius derived from
//                    `target_degree`; bucketed into cells so a neighbor
//                    enumeration scans a 3x3 cell window.
//
// Edge indices are the lexicographic rank of the endpoint pair (min, max):
// rank(u, v) for K_n is closed-form; the sparse families keep a per-node
// prefix array P[u] of min-side counts, so rank and decode are
// O(log n + deg). Indices are dense in [0, m) and identical to the order
// `materialize_implicit` inserts edges, which is what makes the adjacency /
// implicit / mapped backends bit-equivalent (tests/backend_test.cc).
//
// Read-only: every family edge is alive. Workloads that mutate topology run
// on the materialised twin instead.
//
// Query state: a small ring of reusable row buffers (incidence slots,
// sorted-row slots, window buffers). Buffers are recycled, so steady-state
// queries allocate nothing once each buffer has grown to its high-water
// size; spans returned by one query stay valid for the next few queries
// (>= 4 interleaved rows) but are invalidated by eviction -- protocols hold
// at most one row span at a time plus nested oracle walks, which the slot
// counts cover.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/types.h"

namespace kkt::graph {

class Graph;

enum class ImplicitFamily { kComplete, kGridLong, kGeometric };

const char* implicit_family_name(ImplicitFamily f);

struct ImplicitSpec {
  ImplicitFamily family = ImplicitFamily::kComplete;
  std::size_t n = 2;              // kGridLong clamps to the largest square
  std::uint64_t seed = 1;
  Weight max_weight = 1u << 20;
  std::size_t long_links = 2;     // kGridLong: random out-links per node
  double target_degree = 8.0;     // kGeometric: expected mean degree
};

class ImplicitCore {
 public:
  explicit ImplicitCore(const ImplicitSpec& spec);

  const ImplicitSpec& spec() const noexcept { return spec_; }
  std::size_t node_count() const noexcept { return n_; }
  std::size_t edge_slots() const noexcept { return m_; }
  const std::vector<ExtId>& ext_ids() const noexcept { return ext_ids_; }
  int id_bits() const noexcept { return id_bits_; }

  std::size_t degree(NodeId v) const;
  std::span<const Incidence> incident(NodeId v) const;
  std::span<const SortedIncidence> sorted_incident(NodeId v) const;
  std::span<const SortedIncidence> sorted_incident_range(NodeId v,
                                                         AugWeight lo,
                                                         AugWeight hi) const;

  Edge edge(EdgeIdx e) const;
  std::optional<EdgeIdx> find_edge(NodeId u, NodeId v) const;

  Weight max_weight() const;
  EdgeNum max_edge_num() const;

  // Raw weight of the pair {u, v}; the pair must be a family edge. Used by
  // the materialiser and the decode path.
  Weight weight_of(NodeId u, NodeId v) const;

  // Lexicographic rank of the family edge {u, v} (must exist).
  EdgeIdx rank_of(NodeId u, NodeId v) const;

 private:
  struct IncSlot {
    NodeId node = kNoNode;
    std::vector<Incidence> row;
  };
  struct SortSlot {
    NodeId node = kNoNode;
    std::vector<SortedIncidence> row;
  };

  // --- family math ---------------------------------------------------------
  Weight pair_weight(NodeId mn, NodeId mx) const;      // any family
  bool is_family_edge(NodeId u, NodeId v) const;
  // Sorted (ascending) peers of v; writes into `out`.
  void family_neighbors(NodeId v, std::vector<NodeId>& out) const;
  // Sorted (ascending) min-side peers x > u; sparse families only.
  void min_side(NodeId u, std::vector<NodeId>& out) const;
  void gen_row(NodeId v, std::vector<Incidence>& out) const;
  void gen_sorted(NodeId v, std::vector<SortedIncidence>& out) const;
  // kComplete: emit the aug window [lo, hi] of v's row from the global
  // (key, ext) order in O(log n + |out|).
  void complete_window(NodeId v, AugWeight lo, AugWeight hi,
                       std::vector<SortedIncidence>& out) const;
  void complete_emit_keys(NodeId v, std::uint64_t key_lo, std::uint64_t key_hi,
                          AugWeight lo, AugWeight hi,
                          std::vector<SortedIncidence>& out) const;

  bool grid_adjacent(NodeId u, NodeId v) const;
  std::span<const NodeId> out_links(NodeId v) const;
  std::span<const NodeId> in_links(NodeId v) const;
  std::uint32_t geo_cell_x(NodeId v) const;
  std::uint32_t geo_cell_y(NodeId v) const;

  AugWeight aug_of(NodeId u, NodeId v, Weight w) const;

  // --- row cache ---------------------------------------------------------
  std::span<const Incidence> cached_row(NodeId v) const;
  std::span<const SortedIncidence> cached_sorted(NodeId v) const;

  ImplicitSpec spec_;
  std::size_t n_ = 0;
  EdgeIdx m_ = 0;
  Weight maxw_ = 1;
  std::uint64_t wseed_ = 0;  // weight stream
  std::uint64_t lseed_ = 0;  // topology stream (long links / coordinates)
  std::vector<ExtId> ext_ids_;
  int id_bits_ = kMaxIdBits;

  // kComplete: latin-square keys and the global (key, ext) node order.
  std::vector<std::uint64_t> keys_;
  std::vector<NodeId> order_;

  // kGridLong
  std::size_t side_ = 0;
  std::size_t links_ = 0;
  std::vector<NodeId> out_;       // n * links_, kNoNode = skipped draw
  std::vector<std::uint64_t> in_off_;
  std::vector<NodeId> in_src_;    // ascending within each row

  // kGeometric
  std::uint32_t coord_side_ = 0;  // fixed-point unit square side
  std::uint64_t radius2_ = 0;
  std::uint32_t cells_ = 0;       // cell grid is cells_ x cells_
  std::uint32_t cell_w_ = 0;
  std::vector<std::uint32_t> xs_, ys_;
  std::vector<std::uint32_t> cell_off_;
  std::vector<NodeId> cell_nodes_;

  // Sparse families: min-side rank prefix (P_[u] = rank base of node u)
  // and full degrees.
  std::vector<EdgeIdx> prefix_;
  std::vector<std::uint32_t> deg_;

  // Reusable query buffers (see header comment for the lifetime contract).
  static constexpr std::size_t kIncSlots = 8;
  static constexpr std::size_t kSortSlots = 6;
  static constexpr std::size_t kWinBufs = 4;
  mutable std::array<IncSlot, kIncSlots> inc_slots_;
  mutable std::array<SortSlot, kSortSlots> sort_slots_;
  mutable std::array<std::vector<SortedIncidence>, kWinBufs> win_bufs_;
  mutable std::size_t inc_rr_ = 0;
  mutable std::size_t sort_rr_ = 0;
  mutable std::size_t win_rr_ = 0;
  mutable std::vector<NodeId> scratch_;
  mutable std::vector<NodeId> scratch2_;
};

// Implicit-backend graph over the family (O(n) state, computed incidence).
Graph make_implicit_graph(const ImplicitSpec& spec);

// The same family, materialised into the adjacency backend: edges inserted
// in lexicographic (min, max) order, so edge indices coincide with the
// implicit ranks. Intended for tests and moderate n (the edge table is
// stored in full).
Graph materialize_implicit(const ImplicitSpec& spec);

}  // namespace kkt::graph
