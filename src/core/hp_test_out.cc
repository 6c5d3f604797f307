#include "core/hp_test_out.h"

#include <algorithm>
#include <cassert>

#include "hashing/set_equality.h"
#include "util/primes.h"

namespace kkt::core {
namespace {

// Payload: [alpha, p, lo.hi, lo.lo, hi.hi, hi.lo]; echo: [up, down,
// degree_sum, tree_size].
Words encode_payload(std::uint64_t alpha, std::uint64_t p,
                     const Interval& range) {
  Words words{alpha, p};
  push_u128(words, range.lo);
  push_u128(words, range.hi);
  return words;
}

HpTestOutResult run(proto::TreeOps& ops, NodeId root, Interval range,
                    std::uint64_t alpha, std::uint64_t p) {
  const graph::Graph& g = ops.graph();

  const proto::LocalFn local = [&g](NodeId self,
                                    std::span<const std::uint64_t> payload) {
    const hashing::SetPolynomial poly(payload[0], payload[1]);
    const Interval rng{read_u128(payload, 2), read_u128(payload, 4)};
    const int id_bits = g.id_bits();
    const int en_bits = g.edge_num_bits();
    const graph::ExtId self_id = g.ext_id(self);
    std::uint64_t up = poly.identity();
    std::uint64_t down = poly.identity();
    // The up/down products are commutative mod p, so walking the in-range
    // window of the sorted index yields the same values as the adjacency
    // scan; the degree sum counts all alive incidences either way.
    const auto degree_sum = static_cast<std::uint64_t>(g.degree(self));
    for (const graph::AugWeight aug :
         g.sorted_incident_range(self, rng.lo, rng.hi)) {
      const graph::EdgeNum en = graph::aug_weight_edge_num(aug, en_bits);
      const std::uint64_t term = poly.term(en);
      // Orientation: from smaller external ID to larger, i.e. up when self
      // leads the edge number.
      if (graph::edge_num_small_id(en, id_bits) == self_id) {
        up = poly.combine(up, term);
      } else {
        down = poly.combine(down, term);
      }
    }
    return Words{up, down, degree_sum, 1};
  };

  // The interior-node products run through the polynomial's Barrett
  // reciprocal too (identical values to mulmod).
  const hashing::SetPolynomial combiner(alpha, p);
  const proto::CombineFn combine =
      [combiner](NodeId, NodeId, graph::EdgeIdx, Words& acc,
                 std::span<const std::uint64_t> child) {
        acc[0] = combiner.combine(acc[0], child[0]);
        acc[1] = combiner.combine(acc[1], child[1]);
        acc[2] += child[2];
        acc[3] += child[3];
      };

  Words result =
      ops.broadcast_echo(root, encode_payload(alpha, p, range), local, combine);
  return HpTestOutResult{result[0] != result[1], result[2], result[3]};
}

}  // namespace

HpTestOutResult hp_test_out(proto::TreeOps& ops, NodeId root, Interval range,
                            std::uint64_t p) {
  if (range.empty()) return HpTestOutResult{false, 0, 0};
  const std::uint64_t alpha = ops.net().node_rng(root).below(p);
  return run(ops, root, range, alpha, p);
}

HpTestOutResult hp_test_out_any(proto::TreeOps& ops, NodeId root,
                                std::uint64_t p) {
  return hp_test_out(ops, root, Interval{0, ~util::u128{0} >> 1}, p);
}

HpTestOutResult hp_test_out_discover_prime(proto::TreeOps& ops, NodeId root,
                                           Interval range, double eps) {
  assert(eps > 0);
  if (range.empty()) return HpTestOutResult{false, 0, 0};
  const graph::Graph& g = ops.graph();

  // Step 0: one broadcast-and-echo computing maxEdgeNum(T) and B.
  const proto::LocalFn local = [&g](NodeId self,
                                    std::span<const std::uint64_t>) {
    std::uint64_t max_edge_num = 0;
    std::uint64_t degree = 0;
    for (const graph::Incidence& inc : g.incident(self)) {
      max_edge_num = std::max(max_edge_num, g.edge_num(inc.edge));
      ++degree;
    }
    return Words{max_edge_num, degree};
  };
  const proto::CombineFn combine =
      [](NodeId, NodeId, graph::EdgeIdx, Words& acc,
         std::span<const std::uint64_t> child) {
        acc[0] = std::max(acc[0], child[0]);
        acc[1] += child[1];
      };
  Words stats = ops.broadcast_echo(root, Words{}, local, combine);
  const std::uint64_t max_edge_num = stats[0];
  const auto b_over_eps =
      static_cast<std::uint64_t>(static_cast<double>(stats[1]) / eps) + 1;
  const std::uint64_t p =
      util::next_prime(std::max(max_edge_num, b_over_eps) + 1);

  const std::uint64_t alpha = ops.net().node_rng(root).below(p);
  return run(ops, root, range, alpha, p);
}

}  // namespace kkt::core
