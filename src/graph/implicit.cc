#include "graph/implicit.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "graph/graph.h"
#include "util/rng.h"

namespace kkt::graph {

namespace {

// K_n lexicographic rank base of node u: rank(u, u + 1).
constexpr EdgeIdx complete_base(std::uint64_t u, std::uint64_t n) noexcept {
  return u * (2 * n - u - 1) / 2;
}

}  // namespace

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

ImplicitCore::ImplicitCore(const ImplicitSpec& spec) : n_(spec.n) {
  assert(n_ >= 2);
  maxw_ = std::max<Weight>(1, spec.max_weight);
  // Key sums (latin-square weights) must not overflow u64.
  assert(maxw_ <= (Weight{1} << 31));
  maxw_ = std::min<Weight>(maxw_, Weight{1} << 31);
  const std::uint64_t wseed = util::mix_seeds(spec.seed, kWeightSeedSalt);
  ext_ids_ = implicit_ext_ids(n_, spec.seed);
  id_bits_ = id_bits_of(ext_ids_);
  m_ = complete_base(n_ - 1, n_);  // == n(n-1)/2
  keys_.resize(n_);
  for (std::size_t v = 0; v < n_; ++v) {
    keys_[v] = util::mix_seeds(wseed, v) % maxw_;
  }
  order_.resize(n_);
  std::iota(order_.begin(), order_.end(), NodeId{0});
  std::sort(order_.begin(), order_.end(), [this](NodeId a, NodeId b) {
    if (keys_[a] != keys_[b]) return keys_[a] < keys_[b];
    return ext_ids_[a] < ext_ids_[b];
  });
}

// --- family math -----------------------------------------------------------

Weight ImplicitCore::weight_of(NodeId u, NodeId v) const {
  assert(u != v);
  return 1 + (keys_[u] + keys_[v]) % maxw_;
}

AugWeight ImplicitCore::aug_of(NodeId u, NodeId v, Weight w) const {
  return make_aug_weight(w, make_edge_num(ext_ids_[u], ext_ids_[v], id_bits_),
                         2 * id_bits_);
}

EdgeIdx ImplicitCore::rank_of(NodeId u, NodeId v) const {
  const NodeId mn = std::min(u, v), mx = std::max(u, v);
  assert(mn < mx && mx < n_);
  return complete_base(mn, n_) + (mx - mn - 1);
}

Edge ImplicitCore::edge(EdgeIdx e) const {
  assert(e < m_);
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
  const auto u = static_cast<NodeId>(lo);
  const auto v = static_cast<NodeId>(lo + 1 + (e - complete_base(lo, n_)));
  return Edge{u, v, weight_of(u, v), /*alive=*/true};
}

std::optional<EdgeIdx> ImplicitCore::find_edge(NodeId u, NodeId v) const {
  assert(u < n_ && v < n_);
  if (u == v) return std::nullopt;
  return rank_of(u, v);
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

std::span<const Incidence> ImplicitCore::incident(NodeId v) const {
  assert(v < n_);
  return cached_row(v);
}

std::span<const AugWeight> ImplicitCore::sorted_incident_range(
    NodeId v, AugWeight lo, AugWeight hi) const {
  assert(v < n_);
  std::vector<AugWeight>& buf = win_bufs_[win_rr_];
  win_rr_ = (win_rr_ + 1) % kWinBufs;
  complete_window(v, lo, hi, buf);
  return buf;
}

Weight ImplicitCore::max_weight() const {
  // max over pairs of (key_u + key_v) mod maxw: either the largest pair sum
  // below maxw, or the overall largest sum minus maxw.
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

EdgeNum ImplicitCore::max_edge_num() const {
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

// --- Graph integration -------------------------------------------------------

Graph make_implicit_graph(const ImplicitSpec& spec) {
  return Graph(std::make_unique<ImplicitCore>(spec));
}

}  // namespace kkt::graph
