// Implicit edge families: graphs generated from (n, seed) by one
// constructor instead of being inserted edge by edge. Three families:
//  * kComplete    -- K_n. Weights follow a "latin square" rule
//                    w(u, v) = 1 + (key(u) + key(v)) mod maxw with
//                    key(v) = hash(seed, v) mod maxw, so a node's
//                    aug-weight-sorted incidence row is a rotation of one
//                    global node order (sorted by (key, ext)); any
//                    sorted_incident_range window is emitted from <= 2
//                    contiguous segments of that order in O(log n + |out|).
//                    The full sorted row is the window [0, ~0].
//  * kGridLong    -- sqrt(n) x sqrt(n) grid plus `long_links` (<= 64)
//                    random long links per node (small-world); m = Theta(n).
//  * kGeometric   -- random points on the unit square (integer fixed-point
//                    coordinates), edges below a radius derived from
//                    `target_degree`; bucketed into cells so a node's peers
//                    are found in a 3x3 cell window.
//
// Edge indices are the lexicographic rank of the endpoint pair (min, max),
// dense in [0, m) and identical to the order `materialize_implicit` inserts
// edges, which is what makes the adjacency / implicit / mapped backends
// bit-equivalent (tests/backend_test.cc). Ranks are closed-form for K_n.
// The sparse families emit each node's min-side peers in rank order once,
// at construction, and store every row ascending by peer in one arena
// (16 B per incidence) beside a per-node rank prefix P[u]: rank_of and
// find_edge binary-search the lower endpoint's row, edge(e) decodes through
// P and that row.
//
// Read-only: every family edge is alive. Workloads that mutate topology run
// on the materialised twin instead.
//
// Resident state and span lifetime:
//  * kComplete keeps O(n) state -- K_n at n = 10^6 has ~5*10^11 edges (8 TB
//    materialised) -- and computes every row into a small ring of reusable
//    buffers: kIncSlots incidence rows and kWinBufs sorted windows. Steady-
//    state queries allocate nothing once each buffer has grown to its
//    high-water size; an incident(v) span survives kIncSlots - 1 queries of
//    other rows and a window survives kWinBufs - 1 further windows --
//    protocols hold at most one row span at a time plus nested oracle
//    walks, which the counts cover.
//  * kGridLong / kGeometric keep O(n + m) stored rows: an incident(v) span
//    points into the arena and stays valid for the core's lifetime. The
//    core serves no sorted rows for them: Graph sorts a stored row into
//    its per-node cache like any other stored row (graph/graph.h).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
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
  std::size_t long_links = 2;     // kGridLong: random out-links, <= 64
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
  // kComplete only: the ascending aug weights of v's edges within [lo, hi].
  std::span<const AugWeight> sorted_incident_range(NodeId v, AugWeight lo,
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

  // K_n incidence-row ring size: a K_n incident(v) span survives
  // kIncSlots - 1 queries of other rows.
  static constexpr std::size_t kIncSlots = 8;

 private:
  struct IncSlot {
    NodeId node = kNoNode;
    std::vector<Incidence> row;
  };

  // --- family math ---------------------------------------------------------
  Weight pair_weight(NodeId mn, NodeId mx) const;      // any family
  AugWeight aug_of(NodeId u, NodeId v, Weight w) const;

  // Sparse families: fills row_off_ / rows_ from the min-side peers of
  // every node in rank order (`lex`, delimited by prefix_).
  void store_rows(const std::vector<NodeId>& lex);
  std::span<const Incidence> stored_row(NodeId v) const;
  // The entry of u's stored row with peer v, or null.
  const Incidence* row_entry(NodeId u, NodeId v) const;

  void gen_row(NodeId v, std::vector<Incidence>& out) const;  // kComplete
  // kComplete: emit the aug window [lo, hi] of v's row from the global
  // (key, ext) order in O(log n + |out|).
  void complete_window(NodeId v, AugWeight lo, AugWeight hi,
                       std::vector<AugWeight>& out) const;
  void complete_emit_keys(NodeId v, std::uint64_t key_lo, std::uint64_t key_hi,
                          AugWeight lo, AugWeight hi,
                          std::vector<AugWeight>& out) const;

  // --- row cache ---------------------------------------------------------
  std::span<const Incidence> cached_row(NodeId v) const;  // kComplete

  ImplicitSpec spec_;
  std::size_t n_ = 0;
  EdgeIdx m_ = 0;
  Weight maxw_ = 1;
  std::uint64_t wseed_ = 0;  // weight stream
  std::vector<ExtId> ext_ids_;
  int id_bits_ = kMaxIdBits;

  // kComplete: latin-square keys and the global (key, ext) node order.
  std::vector<std::uint64_t> keys_;
  std::vector<NodeId> order_;

  // Sparse families: min-side rank prefix (prefix_[u] = rank base of node
  // u) and the row arena (row v = rows_[row_off_[v], row_off_[v + 1])).
  std::vector<EdgeIdx> prefix_;
  std::vector<EdgeIdx> row_off_;
  std::unique_ptr<Incidence[]> rows_;

  // Reusable K_n query buffers (see header comment for the lifetime
  // contract).
  static constexpr std::size_t kWinBufs = 4;
  mutable std::array<IncSlot, kIncSlots> inc_slots_;
  mutable std::array<std::vector<AugWeight>, kWinBufs> win_bufs_;
  mutable std::size_t inc_rr_ = 0;
  mutable std::size_t win_rr_ = 0;
};

// Implicit-backend graph over the family (see the header comment for its
// resident state).
Graph make_implicit_graph(const ImplicitSpec& spec);

// The same family, materialised into the adjacency backend: edges inserted
// in lexicographic (min, max) order, so edge indices coincide with the
// implicit ranks. Intended for tests and moderate n (the edge table is
// stored in full).
Graph materialize_implicit(const ImplicitSpec& spec);

}  // namespace kkt::graph
