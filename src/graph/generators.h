// Topology generators for experiments and tests.
//
// Every generator returns a Graph with distinct random external IDs and
// (unless stated otherwise) uniform random raw weights in [1, max_weight].
// Raw weights may repeat; uniqueness comes from augmented weights.
#pragma once

#include <cstddef>
#include <cstdint>

#include "graph/graph.h"

namespace kkt::graph {

struct WeightSpec {
  Weight max_weight = 1u << 20;  // u; weights drawn uniformly from [1, u]
};

// Uniform random tree on n nodes (random attachment).
Graph random_tree(std::size_t n, WeightSpec ws, util::Rng& rng);

// Connected G(n, m): a uniform random spanning tree plus m-(n-1) distinct
// random non-tree edges. Precondition: n-1 <= m <= n(n-1)/2.
Graph random_connected_gnm(std::size_t n, std::size_t m, WeightSpec ws,
                           util::Rng& rng);

// Erdos-Renyi G(n, p). Possibly disconnected.
Graph gnp(std::size_t n, double p, WeightSpec ws, util::Rng& rng);

// Complete graph K_n.
Graph complete(std::size_t n, WeightSpec ws, util::Rng& rng);

// Cycle on n >= 3 nodes.
Graph ring(std::size_t n, WeightSpec ws, util::Rng& rng);

// rows x cols grid.
Graph grid(std::size_t rows, std::size_t cols, WeightSpec ws, util::Rng& rng);

// Two K_k cliques joined by a path of path_len >= 1 edges. Dense ends, thin
// middle: stresses repair across a bridge-like cut.
Graph barbell(std::size_t k, std::size_t path_len, WeightSpec ws,
              util::Rng& rng);

// Random geometric graph on the unit square, connecting points closer than
// radius. Possibly disconnected.
Graph random_geometric(std::size_t n, double radius, WeightSpec ws,
                       util::Rng& rng);

// Preferential attachment (Barabasi-Albert): each new node attaches to
// k distinct existing nodes chosen proportionally to degree. Connected.
Graph preferential_attachment(std::size_t n, std::size_t k, WeightSpec ws,
                              util::Rng& rng);

// The textbook worst case for GHS's Theta(m) reject term: the complete
// graph on n = 2^levels nodes whose edge weights follow a balanced binary
// hierarchy -- the weight of {u, v} grows with the level of u and v's
// lowest common ancestor in the partition tree (plus random noise within a
// level). Fragments merge level by level, and at every level each node's
// cheapest-first probing must sweep (and reject) all its newly internal
// edges before reaching an outgoing one, so nearly every one of the
// ~n^2/2 edges costs two Test/Reject messages.
Graph hierarchical_complete(int levels, util::Rng& rng);

// Seeded sparse families: hashed from (n, seed) alone, with no Rng stream,
// and built straight into the read-only frozen CSR layout a .kkg file holds
// (graph/store.h, Graph::Backend::kFrozen). External IDs are
// implicit_ext_ids(n, seed) and the weight of {u, v} is a hash of (seed, u,
// v) in [1, max_weight], max_weight <= 2^31. Edge indices are the
// lexicographic rank of the endpoint pair (min, max); row v lists v's peers
// below v, then above v, each ascending -- the order inserting the edges
// by rank with add_edge gives, so clone() is the same graph, edge for edge.

// side x side grid, side = floor(sqrt(n)) >= 2 (n clamps to the largest
// square), plus long_links <= 64 random long links per node (small world;
// m = Theta(n)).
Graph igridlong(std::size_t n, std::size_t long_links, std::uint64_t seed,
                Weight max_weight = 1u << 20);

// n >= 2 random points on the unit square (integer fixed-point
// coordinates), adjacent below a radius derived from `target_degree`, the
// expected mean degree. Possibly disconnected.
Graph igeo(std::size_t n, double target_degree, std::uint64_t seed,
           Weight max_weight = 1u << 20);

}  // namespace kkt::graph
