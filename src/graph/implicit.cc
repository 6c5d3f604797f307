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

int infer_bits(const std::vector<ExtId>& ids) {
  ExtId mx = 1;
  for (ExtId id : ids) mx = std::max(mx, id);
  int bits = 1;
  while ((ExtId{1} << bits) <= mx) ++bits;
  return bits;
}

// K_n lexicographic rank base of node u: rank(u, u + 1).
constexpr EdgeIdx complete_base(std::uint64_t u, std::uint64_t n) noexcept {
  return u * (2 * n - u - 1) / 2;
}

void sort_unique(std::vector<NodeId>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

constexpr double kPi = 3.14159265358979323846;

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
  lseed_ = util::mix_seeds(spec_.seed, 0x10b07091u);

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
      side_ = isqrt64(n_);
      assert(side_ >= 2 && "kGridLong needs n >= 4");
      n_ = side_ * side_;  // clamp to the largest square
      spec_.n = n_;
      ext_ids_ = implicit_ext_ids(n_, spec_.seed);
      links_ = std::min<std::size_t>(spec_.long_links, 64);
      out_.assign(n_ * links_, kNoNode);
      std::vector<std::uint64_t> indeg(n_ + 1, 0);
      for (std::size_t v = 0; v < n_; ++v) {
        for (std::size_t j = 0; j < links_; ++j) {
          const std::uint64_t key = (static_cast<std::uint64_t>(v) << 8) | j;
          for (std::uint64_t attempt = 0; attempt < 256; ++attempt) {
            const NodeId t = static_cast<NodeId>(
                util::mix_seeds(lseed_, util::mix_seeds(key, attempt)) % n_);
            if (t == static_cast<NodeId>(v)) continue;
            if (grid_adjacent(static_cast<NodeId>(v), t)) continue;
            bool dup = false;
            for (std::size_t k = 0; k < j; ++k) {
              if (out_[v * links_ + k] == t) dup = true;
            }
            if (dup) continue;
            out_[v * links_ + j] = t;
            ++indeg[t];
            break;
          }
        }
      }
      in_off_.assign(n_ + 1, 0);
      for (std::size_t v = 0; v < n_; ++v) in_off_[v + 1] = in_off_[v] + indeg[v];
      in_src_.resize(in_off_[n_]);
      std::vector<std::uint64_t> fill(in_off_.begin(), in_off_.end() - 1);
      for (std::size_t v = 0; v < n_; ++v) {
        for (std::size_t j = 0; j < links_; ++j) {
          const NodeId t = out_[v * links_ + j];
          if (t != kNoNode) in_src_[fill[t]++] = static_cast<NodeId>(v);
        }
      }
      break;
    }
    case ImplicitFamily::kGeometric: {
      ext_ids_ = implicit_ext_ids(n_, spec_.seed);
      coord_side_ = 1u << 20;
      xs_.resize(n_);
      ys_.resize(n_);
      for (std::size_t v = 0; v < n_; ++v) {
        xs_[v] = static_cast<std::uint32_t>(util::mix_seeds(lseed_, 2 * v)) &
                 (coord_side_ - 1);
        ys_[v] =
            static_cast<std::uint32_t>(util::mix_seeds(lseed_, 2 * v + 1)) &
            (coord_side_ - 1);
      }
      const double side = static_cast<double>(coord_side_);
      const double r2_unit =
          std::max(0.0, spec_.target_degree) / (kPi * static_cast<double>(n_));
      radius2_ = static_cast<std::uint64_t>(
          std::llround(std::min(2.0, r2_unit) * side * side));
      radius2_ = std::max<std::uint64_t>(1, radius2_);
      const std::uint64_t r = isqrt64(radius2_) + 1;  // cell width >= radius
      std::uint32_t cells = static_cast<std::uint32_t>(
          (coord_side_ + r - 1) / r);
      const auto cap =
          static_cast<std::uint32_t>(isqrt64(4 * static_cast<std::uint64_t>(n_)) + 1);
      cells_ = std::max<std::uint32_t>(1, std::min(cells, cap));
      cell_w_ = (coord_side_ + cells_ - 1) / cells_;
      const std::size_t ncells = std::size_t{cells_} * cells_;
      cell_off_.assign(ncells + 1, 0);
      for (std::size_t v = 0; v < n_; ++v) {
        const std::size_t c =
            std::size_t{geo_cell_y(static_cast<NodeId>(v))} * cells_ +
            geo_cell_x(static_cast<NodeId>(v));
        ++cell_off_[c + 1];
      }
      for (std::size_t c = 0; c < ncells; ++c) cell_off_[c + 1] += cell_off_[c];
      cell_nodes_.resize(n_);
      std::vector<std::uint32_t> fill(cell_off_.begin(), cell_off_.end() - 1);
      for (std::size_t v = 0; v < n_; ++v) {  // ascending v => sorted in-cell
        const std::size_t c =
            std::size_t{geo_cell_y(static_cast<NodeId>(v))} * cells_ +
            geo_cell_x(static_cast<NodeId>(v));
        cell_nodes_[fill[c]++] = static_cast<NodeId>(v);
      }
      break;
    }
  }
  id_bits_ = infer_bits(ext_ids_);

  if (spec_.family != ImplicitFamily::kComplete) {
    // Min-side rank prefix and full degrees; this loop also grows the
    // scratch buffers to their high-water sizes so queries never allocate.
    prefix_.assign(n_ + 1, 0);
    deg_.assign(n_, 0);
    for (std::size_t u = 0; u < n_; ++u) {
      family_neighbors(static_cast<NodeId>(u), scratch_);
      deg_[u] = static_cast<std::uint32_t>(scratch_.size());
      const auto over = std::upper_bound(scratch_.begin(), scratch_.end(),
                                         static_cast<NodeId>(u));
      prefix_[u + 1] =
          prefix_[u] + static_cast<EdgeIdx>(scratch_.end() - over);
    }
    m_ = prefix_[n_];
    scratch2_.reserve(scratch_.capacity());
  }
}

// --- family math -----------------------------------------------------------

bool ImplicitCore::grid_adjacent(NodeId u, NodeId v) const {
  const std::size_t ru = u / side_, cu = u % side_;
  const std::size_t rv = v / side_, cv = v % side_;
  if (ru == rv) return cu + 1 == cv || cv + 1 == cu;
  if (cu == cv) return ru + 1 == rv || rv + 1 == ru;
  return false;
}

std::span<const NodeId> ImplicitCore::out_links(NodeId v) const {
  return {out_.data() + std::size_t{v} * links_, links_};
}

std::span<const NodeId> ImplicitCore::in_links(NodeId v) const {
  return {in_src_.data() + in_off_[v], in_off_[v + 1] - in_off_[v]};
}

std::uint32_t ImplicitCore::geo_cell_x(NodeId v) const {
  return xs_[v] / cell_w_;
}
std::uint32_t ImplicitCore::geo_cell_y(NodeId v) const {
  return ys_[v] / cell_w_;
}

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

bool ImplicitCore::is_family_edge(NodeId u, NodeId v) const {
  if (u == v) return false;
  switch (spec_.family) {
    case ImplicitFamily::kComplete:
      return true;
    case ImplicitFamily::kGridLong: {
      if (grid_adjacent(u, v)) return true;
      for (const NodeId t : out_links(u)) {
        if (t == v) return true;
      }
      for (const NodeId t : out_links(v)) {
        if (t == u) return true;
      }
      return false;
    }
    case ImplicitFamily::kGeometric: {
      const std::int64_t dx =
          static_cast<std::int64_t>(xs_[u]) - static_cast<std::int64_t>(xs_[v]);
      const std::int64_t dy =
          static_cast<std::int64_t>(ys_[u]) - static_cast<std::int64_t>(ys_[v]);
      return static_cast<std::uint64_t>(dx * dx) +
                 static_cast<std::uint64_t>(dy * dy) <=
             radius2_;
    }
  }
  return false;
}

void ImplicitCore::family_neighbors(NodeId v, std::vector<NodeId>& out) const {
  out.clear();
  switch (spec_.family) {
    case ImplicitFamily::kComplete: {
      out.reserve(n_ - 1);
      for (std::size_t u = 0; u < n_; ++u) {
        if (u != v) out.push_back(static_cast<NodeId>(u));
      }
      return;
    }
    case ImplicitFamily::kGridLong: {
      const std::size_t r = v / side_, c = v % side_;
      if (r > 0) out.push_back(v - static_cast<NodeId>(side_));
      if (c > 0) out.push_back(v - 1);
      if (c + 1 < side_) out.push_back(v + 1);
      if (r + 1 < side_) out.push_back(v + static_cast<NodeId>(side_));
      for (const NodeId t : out_links(v)) {
        if (t != kNoNode) out.push_back(t);
      }
      for (const NodeId s : in_links(v)) out.push_back(s);
      sort_unique(out);
      return;
    }
    case ImplicitFamily::kGeometric: {
      const std::uint32_t cx = geo_cell_x(v), cy = geo_cell_y(v);
      const std::uint32_t x0 = cx > 0 ? cx - 1 : 0;
      const std::uint32_t x1 = std::min(cx + 1, cells_ - 1);
      const std::uint32_t y0 = cy > 0 ? cy - 1 : 0;
      const std::uint32_t y1 = std::min(cy + 1, cells_ - 1);
      for (std::uint32_t gy = y0; gy <= y1; ++gy) {
        for (std::uint32_t gx = x0; gx <= x1; ++gx) {
          const std::size_t c = std::size_t{gy} * cells_ + gx;
          for (std::uint32_t i = cell_off_[c]; i < cell_off_[c + 1]; ++i) {
            const NodeId u = cell_nodes_[i];
            if (u != v && is_family_edge(u, v)) out.push_back(u);
          }
        }
      }
      std::sort(out.begin(), out.end());
      return;
    }
  }
}

void ImplicitCore::min_side(NodeId u, std::vector<NodeId>& out) const {
  family_neighbors(u, out);
  out.erase(out.begin(), std::upper_bound(out.begin(), out.end(), u));
}

EdgeIdx ImplicitCore::rank_of(NodeId u, NodeId v) const {
  const NodeId mn = std::min(u, v), mx = std::max(u, v);
  assert(mn < mx && mx < n_);
  if (spec_.family == ImplicitFamily::kComplete) {
    return complete_base(mn, n_) + (mx - mn - 1);
  }
  min_side(mn, scratch2_);
  const auto it = std::lower_bound(scratch2_.begin(), scratch2_.end(), mx);
  assert(it != scratch2_.end() && *it == mx && "not a family edge");
  return prefix_[mn] + static_cast<EdgeIdx>(it - scratch2_.begin());
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
    const auto it = std::upper_bound(prefix_.begin(), prefix_.end(), e);
    u = static_cast<NodeId>(it - prefix_.begin() - 1);
    min_side(u, scratch2_);
    v = scratch2_[e - prefix_[u]];
  }
  return Edge{u, v, pair_weight(u, v), /*alive=*/true};
}

std::optional<EdgeIdx> ImplicitCore::find_edge(NodeId u, NodeId v) const {
  assert(u < n_ && v < n_);
  if (!is_family_edge(u, v)) return std::nullopt;
  return rank_of(u, v);
}

// --- row generation ----------------------------------------------------------

void ImplicitCore::gen_row(NodeId v, std::vector<Incidence>& out) const {
  out.clear();
  if (spec_.family == ImplicitFamily::kComplete) {
    out.reserve(n_ - 1);
    for (std::size_t u = 0; u < n_; ++u) {
      if (u == v) continue;
      const auto peer = static_cast<NodeId>(u);
      out.push_back(Incidence{peer, rank_of(v, peer)});
    }
    return;
  }
  family_neighbors(v, scratch_);
  out.reserve(scratch_.size());
  for (const NodeId u : scratch_) {
    out.push_back(Incidence{u, rank_of(v, u)});
  }
}

void ImplicitCore::gen_sorted(NodeId v,
                              std::vector<SortedIncidence>& out) const {
  if (spec_.family == ImplicitFamily::kComplete) {
    complete_window(v, 0, ~AugWeight{0}, out);
    return;
  }
  const std::span<const Incidence> row = cached_row(v);
  out.clear();
  out.reserve(row.size());
  for (const Incidence& inc : row) {
    out.push_back(SortedIncidence{
        aug_of(v, inc.peer, weight_of(v, inc.peer)), inc.edge, inc.peer});
  }
  std::sort(out.begin(), out.end(),
            [](const SortedIncidence& a, const SortedIncidence& b) {
              return a.aug < b.aug;
            });
}

void ImplicitCore::complete_emit_keys(NodeId v, std::uint64_t key_lo,
                                      std::uint64_t key_hi, AugWeight lo,
                                      AugWeight hi,
                                      std::vector<SortedIncidence>& out) const {
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
    out.push_back(SortedIncidence{aug, rank_of(u, v), u});
  }
}

// Within one weight class w, v's peers are the nodes of one key class
// (key(u) = (w - 1 - key(v)) mod maxw), and ascending ext order within the
// class is ascending edge-number -- hence ascending aug -- order (ext(u) on
// either side of ext(v) preserves the comparison; see tests). Walking the
// weight range therefore walks <= 2 contiguous cyclic segments of order_.
void ImplicitCore::complete_window(NodeId v, AugWeight lo, AugWeight hi,
                                   std::vector<SortedIncidence>& out) const {
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

std::span<const SortedIncidence> ImplicitCore::cached_sorted(NodeId v) const {
  for (const SortSlot& s : sort_slots_) {
    if (s.node == v) return s.row;
  }
  SortSlot& s = sort_slots_[sort_rr_];
  sort_rr_ = (sort_rr_ + 1) % kSortSlots;
  s.node = v;
  gen_sorted(v, s.row);
  return s.row;
}

// --- public queries ----------------------------------------------------------

std::size_t ImplicitCore::degree(NodeId v) const {
  if (spec_.family == ImplicitFamily::kComplete) return n_ - 1;
  return deg_[v];
}

std::span<const Incidence> ImplicitCore::incident(NodeId v) const {
  assert(v < n_);
  return cached_row(v);
}

std::span<const SortedIncidence> ImplicitCore::sorted_incident(
    NodeId v) const {
  assert(v < n_);
  return cached_sorted(v);
}

std::span<const SortedIncidence> ImplicitCore::sorted_incident_range(
    NodeId v, AugWeight lo, AugWeight hi) const {
  if (spec_.family == ImplicitFamily::kComplete) {
    std::vector<SortedIncidence>& buf = win_bufs_[win_rr_];
    win_rr_ = (win_rr_ + 1) % kWinBufs;
    complete_window(v, lo, hi, buf);
    return buf;
  }
  const std::span<const SortedIncidence> s = sorted_incident(v);
  const SortedIncidence* first = std::lower_bound(
      s.data(), s.data() + s.size(), lo,
      [](const SortedIncidence& si, AugWeight x) { return si.aug < x; });
  const SortedIncidence* last = std::upper_bound(
      first, s.data() + s.size(), hi,
      [](AugWeight x, const SortedIncidence& si) { return x < si.aug; });
  return {first, last};
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
  for (std::size_t u = 0; u < n_; ++u) {
    min_side(static_cast<NodeId>(u), scratch2_);
    for (const NodeId x : scratch2_) {
      best = std::max(best, pair_weight(static_cast<NodeId>(u), x));
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
  for (std::size_t u = 0; u < n_; ++u) {
    min_side(static_cast<NodeId>(u), scratch2_);
    for (const NodeId x : scratch2_) {
      best = std::max(best, make_edge_num(ext_ids_[u], ext_ids_[x], id_bits_));
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
