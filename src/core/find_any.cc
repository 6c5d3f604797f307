#include "core/find_any.h"

#include <bit>
#include <cassert>
#include <cmath>

#include "core/hp_test_out.h"
#include "hashing/pairwise_hash.h"
#include "util/bits.h"

namespace kkt::core {
namespace {

// Step 3b-c: the prefix-parity vector. Payload: [a, b, range_bits, lo.hi,
// lo.lo, hi.hi, hi.lo]; echo: one word whose bit i is the parity of
// {incident in-range edges e : h(e) < 2^i}.
std::uint64_t prefix_parities(proto::TreeOps& ops, NodeId root,
                              const hashing::PairwiseHash& h,
                              const Interval& range) {
  const graph::Graph& g = ops.graph();
  Words payload{h.a(), h.b(), static_cast<std::uint64_t>(h.range_bits())};
  push_u128(payload, range.lo);
  push_u128(payload, range.hi);

  const proto::LocalFn local = [&g](NodeId self,
                                    std::span<const std::uint64_t> p) {
    const hashing::PairwiseHash hash(p[0], p[1], static_cast<int>(p[2]));
    const Interval rng{read_u128(p, 3), read_u128(p, 5)};
    const int en_bits = g.edge_num_bits();
    std::uint64_t bits = 0;
    for (const graph::AugWeight aug :
         g.sorted_incident_range(self, rng.lo, rng.hi)) {
      const std::uint64_t hv =
          hash(graph::aug_weight_edge_num(aug, en_bits));
      // h(e) < 2^i holds for every i > floor_log2(hv); toggling the suffix
      // mask keeps the whole vector in one word.
      const int first = (hv == 0) ? 0 : util::floor_log2(hv) + 1;
      if (first <= hash.range_bits()) {
        bits ^= ~std::uint64_t{0} << first;
      }
    }
    return Words{bits};
  };

  return ops
      .broadcast_echo(root, std::move(payload), local, proto::combine_xor())
      .at(0);
}

// Step 3d: XOR of in-range incident edge numbers hashing below 2^min.
std::uint64_t xor_below(proto::TreeOps& ops, NodeId root,
                        const hashing::PairwiseHash& h, int min,
                        const Interval& range) {
  const graph::Graph& g = ops.graph();
  Words payload{h.a(), h.b(), static_cast<std::uint64_t>(h.range_bits()),
                static_cast<std::uint64_t>(min)};
  push_u128(payload, range.lo);
  push_u128(payload, range.hi);

  const proto::LocalFn local = [&g](NodeId self,
                                    std::span<const std::uint64_t> p) {
    const hashing::PairwiseHash hash(p[0], p[1], static_cast<int>(p[2]));
    const auto bound = std::uint64_t{1} << p[3];
    const Interval rng{read_u128(p, 4), read_u128(p, 6)};
    const int en_bits = g.edge_num_bits();
    std::uint64_t acc = 0;
    for (const graph::AugWeight aug :
         g.sorted_incident_range(self, rng.lo, rng.hi)) {
      const graph::EdgeNum en = graph::aug_weight_edge_num(aug, en_bits);
      if (hash(en) < bound) acc ^= en;
    }
    return Words{acc};
  };

  return ops
      .broadcast_echo(root, std::move(payload), local, proto::combine_xor())
      .at(0);
}

// Step 4: how many tree nodes are endpoints of an in-range edge with this
// number? A sum of 1 certifies a leaving edge in the requested interval.
std::uint64_t incident_count(proto::TreeOps& ops, NodeId root,
                             graph::EdgeNum candidate,
                             const Interval& range) {
  const graph::Graph& g = ops.graph();
  Words payload{candidate};
  push_u128(payload, range.lo);
  push_u128(payload, range.hi);
  const proto::LocalFn local = [&g](NodeId self,
                                    std::span<const std::uint64_t> p) {
    const Interval rng{read_u128(p, 1), read_u128(p, 3)};
    const int en_bits = g.edge_num_bits();
    std::uint64_t count = 0;
    for (const graph::AugWeight aug :
         g.sorted_incident_range(self, rng.lo, rng.hi)) {
      if (graph::aug_weight_edge_num(aug, en_bits) == p[0]) ++count;
    }
    return Words{count};
  };
  return ops
      .broadcast_echo(root, std::move(payload), local, proto::combine_sum())
      .at(0);
}

}  // namespace

FindAnyResult find_any(proto::TreeOps& ops, NodeId root,
                       const FindAnyConfig& cfg) {
  FindAnyResult res;
  util::Rng& rng = ops.net().node_rng(root);

  // Step 2: the w.h.p. gate, which also reports the degree sum B.
  const HpTestOutResult gate = hp_test_out(ops, root, cfg.range);
  if (!gate.leaving) {
    res.stats.gate_empty = true;
    return res;
  }

  // r = a power of two exceeding twice the degree sum of T: Lemma 4 needs
  // the cut size |W| < 2^(l-1), and |W| <= degree_sum (every cut edge is
  // counted at its single inside endpoint).
  const int range_bits = util::ceil_log2(
      util::next_pow2(2 * std::max<std::uint64_t>(gate.degree_sum, 1) + 2));

  const std::size_t n = ops.graph().node_count();
  const int budget =
      cfg.capped
          ? 1
          : static_cast<int>(std::ceil(
                16.0 * std::log(2.0 * std::pow(static_cast<double>(n),
                                               cfg.c)))) +
                1;

  while (res.stats.attempts < budget) {
    ++res.stats.attempts;
    const auto h = hashing::PairwiseHash::random(rng, range_bits);
    const std::uint64_t bits = prefix_parities(ops, root, h, cfg.range);
    if (bits == 0) continue;  // no prefix isolated an odd count
    const int min = std::countr_zero(bits);
    const std::uint64_t candidate = xor_below(ops, root, h, min, cfg.range);
    if (incident_count(ops, root, candidate, cfg.range) == 1) {
      res.found = true;
      res.edge_num = candidate;
      return res;
    }
  }
  res.stats.budget_exhausted = true;
  return res;
}

}  // namespace kkt::core
