// The implicit K_n family (`icomplete`): a complete graph generated from
// (n, seed) and computed on demand instead of stored.
//
// Weights follow a "latin square" rule w(u, v) = 1 + (key(u) + key(v)) mod
// maxw with key(v) = hash(seed, v) mod maxw, so a node's aug-weight-sorted
// incidence row is a rotation of one global node order (sorted by (key,
// ext)); any sorted_incident_range window is emitted from <= 2 contiguous
// segments of that order in O(log n + |out|). The full sorted row is the
// window [0, ~0].
//
// Edge indices are the lexicographic rank of the endpoint pair (min, max),
// dense in [0, m) and closed-form; incident(v) lists every other node in
// ascending order. Graph::clone() of the implicit graph therefore has the
// same edge indices and rows, which makes the two bit-equivalent
// (tests/backend_test.cc). Read-only: every edge is alive. Workloads that
// mutate topology run on the clone instead.
//
// Resident state and span lifetime: O(n) state -- K_n at n = 10^6 has
// ~5*10^11 edges (8 TB materialised) -- and every row is computed into a
// small ring of reusable buffers: kIncSlots incidence rows and kWinBufs
// sorted windows. Steady-state queries allocate nothing once each buffer
// has grown to its high-water size; an incident(v) span survives
// kIncSlots - 1 queries of other rows and a window survives kWinBufs - 1
// further windows -- protocols hold at most one row span at a time plus
// nested oracle walks, which the counts cover.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "graph/types.h"

namespace kkt::graph {

class Graph;

struct ImplicitSpec {
  std::size_t n = 2;
  std::uint64_t seed = 1;
  Weight max_weight = 1u << 20;
};

class ImplicitCore {
 public:
  explicit ImplicitCore(const ImplicitSpec& spec);

  std::size_t node_count() const noexcept { return n_; }
  std::size_t edge_slots() const noexcept { return m_; }
  const std::vector<ExtId>& ext_ids() const noexcept { return ext_ids_; }
  int id_bits() const noexcept { return id_bits_; }

  std::size_t degree(NodeId) const { return n_ - 1; }
  std::span<const Incidence> incident(NodeId v) const;
  // The ascending aug weights of v's edges within [lo, hi].
  std::span<const AugWeight> sorted_incident_range(NodeId v, AugWeight lo,
                                                   AugWeight hi) const;

  Edge edge(EdgeIdx e) const;
  std::optional<EdgeIdx> find_edge(NodeId u, NodeId v) const;

  Weight max_weight() const;
  EdgeNum max_edge_num() const;

  // Raw weight of the pair {u, v}, u != v.
  Weight weight_of(NodeId u, NodeId v) const;

  // Lexicographic rank of the edge {u, v}, u != v.
  EdgeIdx rank_of(NodeId u, NodeId v) const;

  // Incidence-row ring size: an incident(v) span survives kIncSlots - 1
  // queries of other rows.
  static constexpr std::size_t kIncSlots = 8;

 private:
  struct IncSlot {
    NodeId node = kNoNode;
    std::vector<Incidence> row;
  };

  AugWeight aug_of(NodeId u, NodeId v, Weight w) const;

  void gen_row(NodeId v, std::vector<Incidence>& out) const;
  // Emit the aug window [lo, hi] of v's row from the global (key, ext)
  // order in O(log n + |out|).
  void complete_window(NodeId v, AugWeight lo, AugWeight hi,
                       std::vector<AugWeight>& out) const;
  void complete_emit_keys(NodeId v, std::uint64_t key_lo, std::uint64_t key_hi,
                          AugWeight lo, AugWeight hi,
                          std::vector<AugWeight>& out) const;

  std::span<const Incidence> cached_row(NodeId v) const;

  std::size_t n_ = 0;
  EdgeIdx m_ = 0;
  Weight maxw_ = 1;
  std::vector<ExtId> ext_ids_;
  int id_bits_ = kMaxIdBits;

  // Latin-square keys and the global (key, ext) node order.
  std::vector<std::uint64_t> keys_;
  std::vector<NodeId> order_;

  // Reusable query buffers (see header comment for the lifetime contract).
  static constexpr std::size_t kWinBufs = 4;
  mutable std::array<IncSlot, kIncSlots> inc_slots_;
  mutable std::array<std::vector<AugWeight>, kWinBufs> win_bufs_;
  mutable std::size_t inc_rr_ = 0;
  mutable std::size_t win_rr_ = 0;
};

// Implicit-backend K_n (see the header comment for its resident state).
Graph make_implicit_graph(const ImplicitSpec& spec);

// Distinct external IDs for node 0..n-1 hashed from `seed` alone: the IDs
// of every seeded family (icomplete here, igridlong / igeo in
// graph/generators.h).
std::vector<ExtId> implicit_ext_ids(std::size_t n, std::uint64_t seed);

// The weight stream of the seeded families, derived from `seed`: K_n hashes
// each node's key from it, igridlong / igeo each pair's weight.
inline constexpr std::uint64_t kWeightSeedSalt = 0x77eb5a11u;

}  // namespace kkt::graph
