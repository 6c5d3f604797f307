#include "graph/generators.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <unordered_set>
#include <utility>
#include <vector>

#include "graph/implicit.h"
#include "graph/store.h"

namespace kkt::graph {
namespace {

Weight draw_weight(const WeightSpec& ws, util::Rng& rng) {
  assert(ws.max_weight >= 1);
  return rng.range(1, ws.max_weight);
}

std::uint64_t pair_key(NodeId u, NodeId v) {
  const NodeId lo = std::min(u, v), hi = std::max(u, v);
  return (static_cast<std::uint64_t>(lo) << 32) | hi;
}

// Membership filter over unordered node pairs. For the node counts the
// benches and tests use, a flat n*n bitset makes the dense-graph rejection
// loop O(1) per draw; larger graphs fall back to a hash set. Only lookup
// speed differs -- the draw sequence, and therefore the generated graph,
// is identical on both paths.
class PairFilter {
 public:
  explicit PairFilter(std::size_t n) : n_(n) {
    if (n_ <= kBitsetMaxNodes) bits_.assign((n_ * n_ + 63) / 64, 0);
  }

  // Records {u, v}; true if it was absent.
  bool insert(NodeId u, NodeId v) {
    if (!bits_.empty()) {
      const NodeId lo = std::min(u, v), hi = std::max(u, v);
      const std::size_t idx = static_cast<std::size_t>(lo) * n_ + hi;
      std::uint64_t& word = bits_[idx >> 6];
      const std::uint64_t mask = std::uint64_t{1} << (idx & 63);
      if ((word & mask) != 0) return false;
      word |= mask;
      return true;
    }
    return set_.insert(pair_key(u, v)).second;
  }

 private:
  static constexpr std::size_t kBitsetMaxNodes = 8192;  // 8 MB of bits

  std::size_t n_;
  std::vector<std::uint64_t> bits_;
  std::unordered_set<std::uint64_t> set_;
};

// Adds a uniform-random-attachment spanning tree over nodes [0, n).
void add_random_tree_edges(Graph& g, PairFilter& used, const WeightSpec& ws,
                           util::Rng& rng) {
  const std::size_t n = g.node_count();
  // Random permutation so the attachment order is not index-biased.
  std::vector<NodeId> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = static_cast<NodeId>(i);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  for (std::size_t i = 1; i < n; ++i) {
    const NodeId u = order[i];
    const NodeId v = order[rng.below(i)];
    g.add_edge(u, v, draw_weight(ws, rng));
    used.insert(u, v);
  }
}

}  // namespace

Graph random_tree(std::size_t n, WeightSpec ws, util::Rng& rng) {
  return random_connected_gnm(n, n - 1, ws, rng);
}

Graph random_connected_gnm(std::size_t n, std::size_t m, WeightSpec ws,
                           util::Rng& rng) {
  assert(n >= 1);
  assert(m + 1 >= n && m <= n * (n - 1) / 2);
  Graph g(n, rng);
  g.reserve_edges(m);
  PairFilter used(n);
  if (n >= 2) add_random_tree_edges(g, used, ws, rng);
  while (g.edge_count() < m) {
    const auto u = static_cast<NodeId>(rng.below(n));
    const auto v = static_cast<NodeId>(rng.below(n));
    if (u == v) continue;
    if (!used.insert(u, v)) continue;
    g.add_edge(u, v, draw_weight(ws, rng));
  }
  return g;
}

Graph gnp(std::size_t n, double p, WeightSpec ws, util::Rng& rng) {
  assert(p >= 0.0 && p <= 1.0);
  Graph g(n, rng);
  for (NodeId u = 0; u + 1 < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.uniform01() < p) g.add_edge(u, v, draw_weight(ws, rng));
    }
  }
  return g;
}

Graph complete(std::size_t n, WeightSpec ws, util::Rng& rng) {
  Graph g(n, rng);
  g.reserve_edges(n * (n - 1) / 2);
  for (NodeId u = 0; u + 1 < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      g.add_edge(u, v, draw_weight(ws, rng));
    }
  }
  return g;
}

Graph ring(std::size_t n, WeightSpec ws, util::Rng& rng) {
  assert(n >= 3);
  Graph g(n, rng);
  for (NodeId u = 0; u < n; ++u) {
    g.add_edge(u, static_cast<NodeId>((u + 1) % n), draw_weight(ws, rng));
  }
  return g;
}

Graph grid(std::size_t rows, std::size_t cols, WeightSpec ws, util::Rng& rng) {
  assert(rows >= 1 && cols >= 1 && rows * cols >= 1);
  Graph g(rows * cols, rng);
  const auto at = [cols](std::size_t r, std::size_t c) {
    return static_cast<NodeId>(r * cols + c);
  };
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      if (c + 1 < cols) g.add_edge(at(r, c), at(r, c + 1), draw_weight(ws, rng));
      if (r + 1 < rows) g.add_edge(at(r, c), at(r + 1, c), draw_weight(ws, rng));
    }
  }
  return g;
}

Graph barbell(std::size_t k, std::size_t path_len, WeightSpec ws,
              util::Rng& rng) {
  assert(k >= 2 && path_len >= 1);
  const std::size_t n = 2 * k + (path_len - 1);
  Graph g(n, rng);
  // Clique A: [0, k); clique B: [k, 2k); path nodes: [2k, n).
  for (NodeId u = 0; u + 1 < k; ++u) {
    for (NodeId v = u + 1; v < k; ++v) g.add_edge(u, v, draw_weight(ws, rng));
  }
  for (auto u = static_cast<NodeId>(k); u + 1 < 2 * k; ++u) {
    for (auto v = static_cast<NodeId>(u + 1); v < 2 * k; ++v) {
      g.add_edge(u, v, draw_weight(ws, rng));
    }
  }
  NodeId prev = 0;  // a node of clique A
  for (std::size_t i = 0; i + 1 < path_len; ++i) {
    const auto mid = static_cast<NodeId>(2 * k + i);
    g.add_edge(prev, mid, draw_weight(ws, rng));
    prev = mid;
  }
  g.add_edge(prev, static_cast<NodeId>(k), draw_weight(ws, rng));
  return g;
}

Graph random_geometric(std::size_t n, double radius, WeightSpec ws,
                       util::Rng& rng) {
  Graph g(n, rng);
  std::vector<std::pair<double, double>> pts(n);
  for (auto& [x, y] : pts) {
    x = rng.uniform01();
    y = rng.uniform01();
  }
  const double r2 = radius * radius;
  for (NodeId u = 0; u + 1 < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      const double dx = pts[u].first - pts[v].first;
      const double dy = pts[u].second - pts[v].second;
      if (dx * dx + dy * dy <= r2) g.add_edge(u, v, draw_weight(ws, rng));
    }
  }
  return g;
}

Graph hierarchical_complete(int levels, util::Rng& rng) {
  assert(levels >= 1 && levels <= 12);
  const std::size_t n = std::size_t{1} << levels;
  Graph g(n, rng);
  // LCA level of u and v in the implicit balanced binary partition over
  // node indices: the position of the highest differing bit, 1-based.
  for (NodeId u = 0; u + 1 < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      int lca = 0;
      while ((u >> lca) != (v >> lca)) ++lca;
      // Bands of 2^16 weights per level keep levels strictly separated
      // while the in-band noise spreads FindMin's search.
      const Weight w = (static_cast<Weight>(lca) << 16) | rng.below(1u << 16);
      g.add_edge(u, v, w);
    }
  }
  return g;
}

Graph preferential_attachment(std::size_t n, std::size_t k, WeightSpec ws,
                              util::Rng& rng) {
  assert(k >= 1 && n >= k + 1);
  Graph g(n, rng);
  // Endpoint pool: each edge contributes both endpoints, so sampling from
  // the pool is degree-proportional.
  std::vector<NodeId> pool;
  // Seed: star on the first k+1 nodes.
  for (NodeId v = 1; v <= k; ++v) {
    g.add_edge(0, v, draw_weight(ws, rng));
    pool.push_back(0);
    pool.push_back(v);
  }
  // Dedup in draw order: edges are added in the order targets were first
  // sampled, so the graph is identical on every stdlib (iterating an
  // unordered_set here would leak hash-bucket order into the adjacency
  // lists and from there into every counter; kkt_lint unordered-iter).
  std::vector<NodeId> targets;
  targets.reserve(k);
  for (auto u = static_cast<NodeId>(k + 1); u < n; ++u) {
    targets.clear();
    while (targets.size() < k) {
      const NodeId t = pool[rng.below(pool.size())];
      if (std::find(targets.begin(), targets.end(), t) == targets.end()) {
        targets.push_back(t);
      }
    }
    for (NodeId t : targets) {
      g.add_edge(u, t, draw_weight(ws, rng));
      pool.push_back(u);
      pool.push_back(t);
    }
  }
  return g;
}

// --- Seeded sparse families -------------------------------------------------

namespace {

constexpr std::uint64_t kLinkSeedSalt = 0x10b07091u;

// floor(sqrt(x)) for the ranges we use (x < 2^42).
std::uint64_t isqrt64(std::uint64_t x) {
  auto r = static_cast<std::uint64_t>(std::sqrt(static_cast<double>(x)));
  while (r > 0 && r * r > x) --r;
  while ((r + 1) * (r + 1) <= x) ++r;
  return r;
}

constexpr double kPi = 3.14159265358979323846;

// A sparse family's edges in rank order: append(u, peers) pushes u's
// min-side peers (> u), unordered and possibly repeated; each node's list
// is sorted and deduplicated in place. Returns the concatenated lists;
// `off` gets their offsets, i.e. each node's rank base.
template <class Append>
std::vector<NodeId> lex_edges(std::size_t n, std::size_t reserve,
                              std::vector<EdgeIdx>& off, Append&& append) {
  std::vector<NodeId> peers;
  peers.reserve(reserve);
  off.assign(n + 1, 0);
  for (std::size_t u = 0; u < n; ++u) {
    append(static_cast<NodeId>(u), peers);
    const auto first = peers.begin() + static_cast<std::ptrdiff_t>(off[u]);
    std::sort(first, peers.end());
    peers.erase(std::unique(first, peers.end()), peers.end());
    off[u + 1] = peers.size();
  }
  return peers;
}

// igridlong: a side x side grid plus `links` long-link draws per node, each
// a uniform target that is not v, not a grid neighbour and not an earlier
// draw of v (256 attempts, else the draw is skipped). Links are undirected,
// so mutual draws v -> t, t -> v make one edge.
std::vector<NodeId> grid_long_edges(std::size_t side, std::size_t links,
                                    std::uint64_t lseed,
                                    std::vector<EdgeIdx>& off) {
  const std::size_t n = side * side;
  // Vertical neighbours differ by side; horizontal ones by 1 within a row.
  const auto grid_adjacent = [side](std::size_t u, std::size_t v) {
    const std::size_t lo = std::min(u, v), hi = std::max(u, v);
    return hi - lo == side || (hi - lo == 1 && hi % side != 0);
  };
  std::vector<NodeId> out(n * links, kNoNode);
  std::vector<std::uint64_t> in_off(n + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t j = 0; j < links; ++j) {
      const std::uint64_t key = (static_cast<std::uint64_t>(v) << 8) | j;
      for (std::uint64_t attempt = 0; attempt < 256; ++attempt) {
        const NodeId t = static_cast<NodeId>(
            util::mix_seeds(lseed, util::mix_seeds(key, attempt)) % n);
        if (t == v || grid_adjacent(v, t)) continue;
        if (std::find(&out[v * links], &out[v * links + j], t) !=
            &out[v * links + j]) {
          continue;
        }
        out[v * links + j] = t;
        ++in_off[t];
        break;
      }
    }
  }
  // in_off[t] counts t's in-links; as a running sum it is the end of t's
  // source list, and the descending fill walks it back to the start, so
  // each list ascends.
  std::partial_sum(in_off.begin(), in_off.end() - 1, in_off.begin());
  in_off[n] = in_off[n - 1];
  std::vector<NodeId> in_src(in_off[n]);
  for (std::size_t v = n; v-- > 0;) {
    for (std::size_t j = 0; j < links; ++j) {
      const NodeId t = out[v * links + j];
      if (t != kNoNode) in_src[--in_off[t]] = static_cast<NodeId>(v);
    }
  }
  return lex_edges(n, n * (2 + links), off,
                   [&](NodeId v, std::vector<NodeId>& peers) {
    if ((v + 1) % side != 0) peers.push_back(v + 1);
    if (v + side < n) peers.push_back(v + static_cast<NodeId>(side));
    for (std::size_t j = 0; j < links; ++j) {
      const NodeId t = out[std::size_t{v} * links + j];
      if (t != kNoNode && t > v) peers.push_back(t);
    }
    const NodeId* first = in_src.data() + in_off[v];
    const NodeId* last = in_src.data() + in_off[v + 1];
    peers.insert(peers.end(), std::upper_bound(first, last, v), last);
  });
}

// igeo: n random points with 20-bit fixed-point coordinates; two points are
// adjacent when their squared distance is <= radius2. Points are bucketed
// into cells at least a radius wide, so a node's peers lie in its 3x3 cell
// window.
std::vector<NodeId> geometric_edges(std::size_t n, double target_degree,
                                    std::uint64_t lseed,
                                    std::vector<EdgeIdx>& off) {
  constexpr std::uint32_t kSide = 1u << 20;
  std::vector<std::uint32_t> xs(n), ys(n);
  for (std::size_t v = 0; v < n; ++v) {
    xs[v] = static_cast<std::uint32_t>(util::mix_seeds(lseed, 2 * v)) &
            (kSide - 1);
    ys[v] = static_cast<std::uint32_t>(util::mix_seeds(lseed, 2 * v + 1)) &
            (kSide - 1);
  }
  const double side = static_cast<double>(kSide);
  const double r2_unit =
      std::max(0.0, target_degree) / (kPi * static_cast<double>(n));
  const std::uint64_t radius2 = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(
             std::llround(std::min(2.0, r2_unit) * side * side)));
  const std::uint64_t r = isqrt64(radius2) + 1;  // cell width >= radius
  const auto cap = static_cast<std::uint32_t>(
      isqrt64(4 * static_cast<std::uint64_t>(n)) + 1);
  const std::uint32_t cells = std::max<std::uint32_t>(
      1, std::min(static_cast<std::uint32_t>((kSide + r - 1) / r), cap));
  const std::uint32_t cell_w = (kSide + cells - 1) / cells;
  const auto cell_of = [&](std::size_t v) {
    return std::size_t{ys[v] / cell_w} * cells + xs[v] / cell_w;
  };
  // Cell lists, filled like grid_long_edges' in-link lists.
  const std::size_t ncells = std::size_t{cells} * cells;
  std::vector<std::uint32_t> cell_off(ncells + 1, 0);
  for (std::size_t v = 0; v < n; ++v) ++cell_off[cell_of(v)];
  std::partial_sum(cell_off.begin(), cell_off.end() - 1, cell_off.begin());
  cell_off[ncells] = cell_off[ncells - 1];
  std::vector<NodeId> cell_nodes(n);
  for (std::size_t v = n; v-- > 0;) {
    cell_nodes[--cell_off[cell_of(v)]] = static_cast<NodeId>(v);
  }
  return lex_edges(n, 0, off, [&](NodeId v, std::vector<NodeId>& peers) {
    const std::uint32_t cx = xs[v] / cell_w, cy = ys[v] / cell_w;
    for (std::uint32_t gy = cy > 0 ? cy - 1 : 0;
         gy <= std::min(cy + 1, cells - 1); ++gy) {
      for (std::uint32_t gx = cx > 0 ? cx - 1 : 0;
           gx <= std::min(cx + 1, cells - 1); ++gx) {
        const std::size_t c = std::size_t{gy} * cells + gx;
        for (std::uint32_t i = cell_off[c]; i < cell_off[c + 1]; ++i) {
          const NodeId u = cell_nodes[i];
          const std::int64_t dx = std::int64_t{xs[u]} - xs[v];
          const std::int64_t dy = std::int64_t{ys[u]} - ys[v];
          if (u > v && static_cast<std::uint64_t>(dx * dx + dy * dy) <=
                           radius2) {
            peers.push_back(u);
          }
        }
      }
    }
  });
}

// The frozen graph over a seeded family's edges in rank order (`lex`, node
// u's min-side peers at [off[u], off[u + 1])). Row v is v's peers below v,
// then its min-side peers, each ascending -- the rows add_edge builds when
// the edges are inserted in rank order. One forward pass writes the edge
// records and counts the rows; then offsets[v] serves as the fill cursor of
// v's below-v part: it starts at the part's end and the descending-rank
// scatter walks it back to the row start.
Graph frozen_graph(std::size_t n, std::uint64_t seed, Weight max_weight,
                   const std::vector<NodeId>& lex,
                   const std::vector<EdgeIdx>& off) {
  const EdgeIdx m = off[n];
  const Weight maxw = std::clamp<Weight>(max_weight, 1, Weight{1} << 31);
  const std::uint64_t wseed = util::mix_seeds(seed, kWeightSeedSalt);
  FrozenSections s;
  s.ext_ids = implicit_ext_ids(n, seed);
  s.id_bits = id_bits_of(s.ext_ids);
  s.offsets.assign(n + 1, 0);
  s.edges = std::make_unique_for_overwrite<StoreEdge[]>(m);
  for (std::size_t u = 0; u < n; ++u) {
    const auto nu = static_cast<NodeId>(u);
    s.offsets[u + 1] += off[u + 1] - off[u];
    for (EdgeIdx e = off[u]; e < off[u + 1]; ++e) {
      const NodeId v = lex[e];
      ++s.offsets[v + 1];
      const std::uint64_t h =
          util::mix_seeds(wseed, (static_cast<std::uint64_t>(nu) << 32) | v);
      s.edges[e] = StoreEdge{nu, v, 1 + h % maxw};
    }
  }
  std::partial_sum(s.offsets.begin(), s.offsets.end(), s.offsets.begin());
  for (std::size_t v = 0; v < n; ++v) {
    s.offsets[v] = s.offsets[v + 1] - (off[v + 1] - off[v]);
  }
  s.arena = std::make_unique_for_overwrite<Incidence[]>(2 * m);
  std::uint64_t* const row = s.offsets.data();
  for (std::size_t u = n; u-- > 0;) {
    const auto nu = static_cast<NodeId>(u);
    for (EdgeIdx e = off[u]; e < off[u + 1]; ++e) {
      const NodeId v = lex[e];
      s.arena[row[u] + (e - off[u])] = Incidence{v, e};
      s.arena[--row[v]] = Incidence{nu, e};
    }
  }
  return Graph::from_store(FrozenStore::adopt(std::move(s)));
}

}  // namespace

Graph igridlong(std::size_t n, std::size_t long_links, std::uint64_t seed,
                Weight max_weight) {
  const std::size_t side = isqrt64(n);
  assert(side >= 2 && "igridlong needs n >= 4");
  assert(long_links <= 64 && "graph_spec_error rejects aux > 64");
  std::vector<EdgeIdx> off;
  const std::vector<NodeId> lex = grid_long_edges(
      side, long_links, util::mix_seeds(seed, kLinkSeedSalt), off);
  return frozen_graph(side * side, seed, max_weight, lex, off);
}

Graph igeo(std::size_t n, double target_degree, std::uint64_t seed,
           Weight max_weight) {
  std::vector<EdgeIdx> off;
  const std::vector<NodeId> lex = geometric_edges(
      n, target_degree, util::mix_seeds(seed, kLinkSeedSalt), off);
  return frozen_graph(n, seed, max_weight, lex, off);
}

}  // namespace kkt::graph
