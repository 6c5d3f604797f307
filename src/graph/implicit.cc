#include "graph/implicit.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

#include "graph/graph.h"
#include "util/rng.h"

namespace kkt::graph {

namespace {

// floor(sqrt(x)) for the ranges we use (x < 2^42).
std::uint64_t isqrt64(std::uint64_t x) {
  auto r = static_cast<std::uint64_t>(std::sqrt(static_cast<double>(x)));
  while (r > 0 && r * r > x) --r;
  while ((r + 1) * (r + 1) <= x) ++r;
  return r;
}

// Distinct external IDs from a seeded bijection on a b-bit space: odd
// multiplications mod 2^b and xorshifts are both invertible, so distinct
// nodes get distinct IDs by construction -- no rejection sampling, O(1)
// per node. b mirrors the polynomial default of random_ext_ids (~n^3),
// capped at 30 bits so IDs stay <= 2^30 < kMaxExtId.
std::vector<ExtId> implicit_ext_ids(std::size_t n, std::uint64_t seed) {
  assert(n >= 2);
  const int n_bits = util::ceil_log2(static_cast<std::uint64_t>(n));
  const int b = std::min(30, std::max(8, 3 * n_bits + 2));
  const std::uint64_t mask = (std::uint64_t{1} << b) - 1;
  const std::uint64_t a1 = util::mix_seeds(seed, 0xa1) | 1;
  const std::uint64_t a2 = util::mix_seeds(seed, 0xa2) | 1;
  const std::uint64_t a3 = util::mix_seeds(seed, 0xa3) | 1;
  const int s1 = b / 2 + 1;
  const int s2 = b / 3 + 1;
  std::vector<ExtId> ids(n);
  for (std::size_t v = 0; v < n; ++v) {
    std::uint64_t x = v;
    x = (x * a1) & mask;
    x ^= x >> s1;
    x = (x * a2) & mask;
    x ^= x >> s2;
    x = (x * a3) & mask;
    ids[v] = static_cast<ExtId>(x + 1);
  }
  return ids;
}

// K_n lexicographic rank base of node u: rank(u, u + 1).
constexpr EdgeIdx complete_base(std::uint64_t u, std::uint64_t n) noexcept {
  return u * (2 * n - u - 1) / 2;
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

}  // namespace

const char* implicit_family_name(ImplicitFamily f) {
  switch (f) {
    case ImplicitFamily::kComplete: return "icomplete";
    case ImplicitFamily::kGridLong: return "igridlong";
    case ImplicitFamily::kGeometric: return "igeo";
  }
  return "?";
}

ImplicitCore::ImplicitCore(const ImplicitSpec& spec) : spec_(spec) {
  n_ = spec_.n;
  assert(n_ >= 2);
  maxw_ = std::max<Weight>(1, spec_.max_weight);
  // Key sums (latin-square weights) must not overflow u64.
  assert(maxw_ <= (Weight{1} << 31));
  maxw_ = std::min<Weight>(maxw_, Weight{1} << 31);
  wseed_ = util::mix_seeds(spec_.seed, 0x77eb5a11u);
  const std::uint64_t lseed = util::mix_seeds(spec_.seed, 0x10b07091u);

  switch (spec_.family) {
    case ImplicitFamily::kComplete: {
      ext_ids_ = implicit_ext_ids(n_, spec_.seed);
      m_ = complete_base(n_ - 1, n_) ;  // == n(n-1)/2
      keys_.resize(n_);
      for (std::size_t v = 0; v < n_; ++v) {
        keys_[v] = util::mix_seeds(wseed_, v) % maxw_;
      }
      order_.resize(n_);
      std::iota(order_.begin(), order_.end(), NodeId{0});
      std::sort(order_.begin(), order_.end(), [this](NodeId a, NodeId b) {
        if (keys_[a] != keys_[b]) return keys_[a] < keys_[b];
        return ext_ids_[a] < ext_ids_[b];
      });
      break;
    }
    case ImplicitFamily::kGridLong: {
      const std::size_t side = isqrt64(n_);
      assert(side >= 2 && "kGridLong needs n >= 4");
      assert(spec_.long_links <= 64 && "graph_spec_error rejects aux > 64");
      n_ = side * side;  // clamp to the largest square
      spec_.n = n_;
      ext_ids_ = implicit_ext_ids(n_, spec_.seed);
      store_rows(grid_long_edges(side, spec_.long_links, lseed, prefix_));
      break;
    }
    case ImplicitFamily::kGeometric:
      ext_ids_ = implicit_ext_ids(n_, spec_.seed);
      store_rows(geometric_edges(n_, spec_.target_degree, lseed, prefix_));
      break;
  }
  id_bits_ = id_bits_of(ext_ids_);
}

// Row v is v's peers below v, then its min-side peers, each ascending --
// exactly the order materialize_implicit inserts edges. row_off_[v] serves
// as the fill cursor of v's below-v part: it starts at the part's end and
// the descending-rank scatter walks it back to the row start.
void ImplicitCore::store_rows(const std::vector<NodeId>& lex) {
  m_ = prefix_[n_];
  row_off_.assign(n_ + 1, 0);
  for (std::size_t u = 0; u < n_; ++u) {
    row_off_[u + 1] += prefix_[u + 1] - prefix_[u];
    for (EdgeIdx e = prefix_[u]; e < prefix_[u + 1]; ++e) {
      ++row_off_[lex[e] + 1];
    }
  }
  std::partial_sum(row_off_.begin(), row_off_.end(), row_off_.begin());
  for (std::size_t v = 0; v < n_; ++v) {
    row_off_[v] = row_off_[v + 1] - (prefix_[v + 1] - prefix_[v]);
  }
  rows_ = std::make_unique_for_overwrite<Incidence[]>(2 * m_);
  for (std::size_t u = n_; u-- > 0;) {
    for (EdgeIdx e = prefix_[u]; e < prefix_[u + 1]; ++e) {
      rows_[row_off_[u] + (e - prefix_[u])] = Incidence{lex[e], e};
      rows_[--row_off_[lex[e]]] = Incidence{static_cast<NodeId>(u), e};
    }
  }
}

// --- family math -----------------------------------------------------------

Weight ImplicitCore::pair_weight(NodeId mn, NodeId mx) const {
  assert(mn < mx);
  if (spec_.family == ImplicitFamily::kComplete) {
    return 1 + (keys_[mn] + keys_[mx]) % maxw_;
  }
  const std::uint64_t pair = (static_cast<std::uint64_t>(mn) << 32) | mx;
  return 1 + util::mix_seeds(wseed_, pair) % maxw_;
}

Weight ImplicitCore::weight_of(NodeId u, NodeId v) const {
  return pair_weight(std::min(u, v), std::max(u, v));
}

AugWeight ImplicitCore::aug_of(NodeId u, NodeId v, Weight w) const {
  return make_aug_weight(w, make_edge_num(ext_ids_[u], ext_ids_[v], id_bits_),
                         2 * id_bits_);
}

std::span<const Incidence> ImplicitCore::stored_row(NodeId v) const {
  return {rows_.get() + row_off_[v], row_off_[v + 1] - row_off_[v]};
}

const Incidence* ImplicitCore::row_entry(NodeId u, NodeId v) const {
  const std::span<const Incidence> row = stored_row(u);
  const auto it = std::lower_bound(
      row.begin(), row.end(), v,
      [](const Incidence& inc, NodeId x) { return inc.peer < x; });
  return it != row.end() && it->peer == v ? &*it : nullptr;
}

EdgeIdx ImplicitCore::rank_of(NodeId u, NodeId v) const {
  const NodeId mn = std::min(u, v), mx = std::max(u, v);
  assert(mn < mx && mx < n_);
  if (spec_.family == ImplicitFamily::kComplete) {
    return complete_base(mn, n_) + (mx - mn - 1);
  }
  const Incidence* inc = row_entry(mn, mx);
  assert(inc != nullptr && "not a family edge");
  return inc->edge;
}

Edge ImplicitCore::edge(EdgeIdx e) const {
  assert(e < m_);
  NodeId u = 0, v = 0;
  if (spec_.family == ImplicitFamily::kComplete) {
    // Largest u with complete_base(u) <= e.
    std::size_t lo = 0, hi = n_ - 1;
    while (lo + 1 < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (complete_base(mid, n_) <= e) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    u = static_cast<NodeId>(lo);
    v = static_cast<NodeId>(lo + 1 + (e - complete_base(lo, n_)));
  } else {
    // u's min-side peers end its row, in rank order.
    const auto it = std::upper_bound(prefix_.begin(), prefix_.end(), e);
    u = static_cast<NodeId>(it - prefix_.begin() - 1);
    v = rows_[row_off_[u + 1] - (prefix_[u + 1] - e)].peer;
  }
  return Edge{u, v, pair_weight(u, v), /*alive=*/true};
}

std::optional<EdgeIdx> ImplicitCore::find_edge(NodeId u, NodeId v) const {
  assert(u < n_ && v < n_);
  if (u == v) return std::nullopt;
  if (spec_.family == ImplicitFamily::kComplete) return rank_of(u, v);
  const Incidence* inc = row_entry(std::min(u, v), std::max(u, v));
  if (inc == nullptr) return std::nullopt;
  return inc->edge;
}

// --- row generation ----------------------------------------------------------

void ImplicitCore::gen_row(NodeId v, std::vector<Incidence>& out) const {
  out.clear();
  out.reserve(n_ - 1);
  for (std::size_t u = 0; u < n_; ++u) {
    if (u == v) continue;
    const auto peer = static_cast<NodeId>(u);
    out.push_back(Incidence{peer, rank_of(v, peer)});
  }
}

void ImplicitCore::complete_emit_keys(NodeId v, std::uint64_t key_lo,
                                      std::uint64_t key_hi, AugWeight lo,
                                      AugWeight hi,
                                      std::vector<AugWeight>& out) const {
  const auto first = std::lower_bound(
      order_.begin(), order_.end(), key_lo,
      [this](NodeId a, std::uint64_t k) { return keys_[a] < k; });
  const auto last = std::upper_bound(
      first, order_.end(), key_hi,
      [this](std::uint64_t k, NodeId a) { return k < keys_[a]; });
  const std::uint64_t kv = keys_[v];
  for (auto it = first; it != last; ++it) {
    const NodeId u = *it;
    if (u == v) continue;
    const Weight w = 1 + (keys_[u] + kv) % maxw_;
    const AugWeight aug = aug_of(u, v, w);
    if (aug < lo || aug > hi) continue;
    out.push_back(aug);
  }
}

// Within one weight class w, v's peers are the nodes of one key class
// (key(u) = (w - 1 - key(v)) mod maxw), and ascending ext order within the
// class is ascending edge-number -- hence ascending aug -- order (ext(u) on
// either side of ext(v) preserves the comparison; see tests). Walking the
// weight range therefore walks <= 2 contiguous cyclic segments of order_.
void ImplicitCore::complete_window(NodeId v, AugWeight lo, AugWeight hi,
                                   std::vector<AugWeight>& out) const {
  out.clear();
  if (lo > hi) return;
  const int en_bits = 2 * id_bits_;
  Weight wa = aug_weight_raw(lo, en_bits);
  Weight wb = aug_weight_raw(hi, en_bits);
  if (wa < 1) wa = 1;
  if (wb > maxw_) wb = maxw_;
  if (wa > wb) return;
  const std::uint64_t kv = keys_[v];
  const std::uint64_t count = wb - wa + 1;  // <= maxw_
  const std::uint64_t kt_a = (wa - 1 + maxw_ - kv) % maxw_;
  if (kt_a + count - 1 < maxw_) {
    complete_emit_keys(v, kt_a, kt_a + count - 1, lo, hi, out);
  } else {
    complete_emit_keys(v, kt_a, maxw_ - 1, lo, hi, out);
    complete_emit_keys(v, 0, kt_a + count - 1 - maxw_, lo, hi, out);
  }
}

// --- row cache -------------------------------------------------------------

std::span<const Incidence> ImplicitCore::cached_row(NodeId v) const {
  for (const IncSlot& s : inc_slots_) {
    if (s.node == v) return s.row;
  }
  IncSlot& s = inc_slots_[inc_rr_];
  inc_rr_ = (inc_rr_ + 1) % kIncSlots;
  s.node = v;
  gen_row(v, s.row);
  return s.row;
}

// --- public queries ----------------------------------------------------------

std::size_t ImplicitCore::degree(NodeId v) const {
  if (spec_.family == ImplicitFamily::kComplete) return n_ - 1;
  return row_off_[v + 1] - row_off_[v];
}

std::span<const Incidence> ImplicitCore::incident(NodeId v) const {
  assert(v < n_);
  if (spec_.family == ImplicitFamily::kComplete) return cached_row(v);
  return stored_row(v);
}

std::span<const AugWeight> ImplicitCore::sorted_incident_range(
    NodeId v, AugWeight lo, AugWeight hi) const {
  assert(v < n_ && spec_.family == ImplicitFamily::kComplete);
  std::vector<AugWeight>& buf = win_bufs_[win_rr_];
  win_rr_ = (win_rr_ + 1) % kWinBufs;
  complete_window(v, lo, hi, buf);
  return buf;
}

Weight ImplicitCore::max_weight() const {
  if (spec_.family == ImplicitFamily::kComplete) {
    // max over pairs of (key_u + key_v) mod maxw: either the largest pair
    // sum below maxw, or the overall largest sum minus maxw.
    std::vector<std::uint64_t> k = keys_;
    std::sort(k.begin(), k.end());
    std::uint64_t best = 0;
    const std::uint64_t top = k[n_ - 1] + k[n_ - 2];
    if (top >= maxw_) best = top - maxw_;
    std::size_t i = 0, j = n_ - 1;
    while (i < j) {
      if (k[i] + k[j] < maxw_) {
        best = std::max(best, k[i] + k[j]);
        ++i;
      } else {
        --j;
      }
    }
    return 1 + best;
  }
  Weight best = 0;
  for (NodeId u = 0; u < n_; ++u) {
    for (const Incidence& inc : stored_row(u)) {
      if (inc.peer > u) best = std::max(best, pair_weight(u, inc.peer));
    }
  }
  return best;
}

EdgeNum ImplicitCore::max_edge_num() const {
  if (spec_.family == ImplicitFamily::kComplete) {
    // Every pair is an edge, so the two largest ext IDs realize the max.
    ExtId a = 0, b = 0;
    for (const ExtId id : ext_ids_) {
      if (id > a) {
        b = a;
        a = id;
      } else if (id > b) {
        b = id;
      }
    }
    return make_edge_num(a, b, id_bits_);
  }
  EdgeNum best = 0;
  for (NodeId u = 0; u < n_; ++u) {
    for (const Incidence& inc : stored_row(u)) {
      best = std::max(best,
                      make_edge_num(ext_ids_[u], ext_ids_[inc.peer], id_bits_));
    }
  }
  return best;
}

// --- Graph integration -------------------------------------------------------

Graph make_implicit_graph(const ImplicitSpec& spec) {
  return Graph(std::make_unique<ImplicitCore>(spec));
}

Graph materialize_implicit(const ImplicitSpec& spec) {
  const ImplicitCore core(spec);
  Graph g(core.ext_ids());
  g.reserve_edges(core.edge_slots());
  const auto n = static_cast<NodeId>(core.node_count());
  for (NodeId u = 0; u < n; ++u) {
    for (const Incidence& inc : core.incident(u)) {
      if (inc.peer <= u) continue;  // lexicographic (min, max) order
      [[maybe_unused]] const EdgeIdx e =
          g.add_edge(u, inc.peer, core.weight_of(u, inc.peer));
      assert(e == inc.edge && "materialised index must equal implicit rank");
    }
  }
  return g;
}

}  // namespace kkt::graph
