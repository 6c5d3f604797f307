// Fundamental identifiers: nodes, edges, edge numbers, augmented weights.
//
// Model (paper, Introduction & Definitions):
//  * Every node has a unique external ID in {1, ..., n^c}; we draw distinct
//    random IDs below 2^31 so that an edge number -- "the concatenation of
//    the unique IDs of the edge's endpoints, smallest first" -- fits in 62
//    bits, strictly below the default field modulus kPrimeBelow63.
//  * Edge weights are integers in {1, ..., u}. Unique total ordering is
//    obtained "by concatenating the weight to the front of its edge number"
//    (as in GHS): the augmented weight is a 126-bit value
//        aug = (weight << 62) | edge_number.
//    FindMin searches over augmented weights, so the minimum is unique and
//    identifies its edge.
//
// EdgeIdx is 64-bit: the implicit K_n family (graph/implicit.h) addresses
// the edges of K_n at n = 10^6 by lexicographic rank, and n(n-1)/2 ~ 5*10^11
// overflows 32 bits. Edge indices never cross the wire (messages carry edge
// *numbers*), so only in-memory tables pay for the width.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>

#include "util/bits.h"

namespace kkt::graph {

using NodeId = std::uint32_t;   // internal index in [0, n)
using EdgeIdx = std::uint64_t;  // index into Graph::edges() / implicit rank
using ExtId = std::uint32_t;    // external identity, in [1, 2^31)
using Weight = std::uint64_t;   // raw weight in [1, u], u < 2^63
using EdgeNum = std::uint64_t;  // < 2^62
using AugWeight = util::u128;   // (weight << 62) | edge_num

inline constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();
inline constexpr EdgeIdx kNoEdge = std::numeric_limits<EdgeIdx>::max();
// Widest supported ID: 31 bits, so the widest edge number is 62 bits < p.
inline constexpr int kMaxIdBits = 31;
inline constexpr int kMaxEdgeNumBits = 2 * kMaxIdBits;
inline constexpr ExtId kMaxExtId = (ExtId{1} << kMaxIdBits) - 1;

// Edge number: concatenation of the endpoint IDs, smallest first, with IDs
// drawn from a 2^id_bits space (all nodes know id_bits, derived from n).
constexpr EdgeNum make_edge_num(ExtId a, ExtId b,
                                int id_bits = kMaxIdBits) noexcept {
  const ExtId lo = a < b ? a : b;
  const ExtId hi = a < b ? b : a;
  return (static_cast<EdgeNum>(lo) << id_bits) | hi;
}

constexpr ExtId edge_num_small_id(EdgeNum e,
                                  int id_bits = kMaxIdBits) noexcept {
  return static_cast<ExtId>(e >> id_bits);
}
constexpr ExtId edge_num_large_id(EdgeNum e,
                                  int id_bits = kMaxIdBits) noexcept {
  return static_cast<ExtId>(e & ((ExtId{1} << id_bits) - 1));
}
// Whether `id` is one of the two endpoint IDs that `e` encodes.
constexpr bool edge_num_names(EdgeNum e, ExtId id,
                              int id_bits = kMaxIdBits) noexcept {
  return id == edge_num_small_id(e, id_bits) ||
         id == edge_num_large_id(e, id_bits);
}

// Augmented weight: raw weight concatenated in front of the edge number
// (en_bits = 2 * id_bits).
constexpr AugWeight make_aug_weight(Weight w, EdgeNum e,
                                    int en_bits = kMaxEdgeNumBits) noexcept {
  return (static_cast<AugWeight>(w) << en_bits) | e;
}

constexpr Weight aug_weight_raw(AugWeight aw,
                                int en_bits = kMaxEdgeNumBits) noexcept {
  return static_cast<Weight>(aw >> en_bits);
}
constexpr EdgeNum aug_weight_edge_num(
    AugWeight aw, int en_bits = kMaxEdgeNumBits) noexcept {
  return static_cast<EdgeNum>(aw & ((AugWeight{1} << en_bits) - 1));
}

// --- shared storage-entry PODs ---------------------------------------------
// These live here (not graph.h) so every backend -- per-node adjacency
// vectors, the frozen store's CSR arena, and implicit K_n's row ring --
// shares one entry layout and Graph can hand out spans over any of them.

struct Edge {
  NodeId u = kNoNode;
  NodeId v = kNoNode;
  Weight weight = 0;
  bool alive = false;

  NodeId other(NodeId x) const noexcept {
    assert(x == u || x == v);
    return x == u ? v : u;
  }
};

// Entry of a node's adjacency list (or of one frozen CSR arena row).
struct Incidence {
  NodeId peer;
  EdgeIdx edge;
};

}  // namespace kkt::graph
