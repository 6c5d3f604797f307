#include "core/hp_test_out.h"

#include <algorithm>
#include <cassert>

#include "hashing/set_equality.h"
#include "util/primes.h"

namespace kkt::core {
namespace {

// One run's state, built once at the initiator (the Barrett reciprocal is
// a 128-bit division). Nodes borrow it through one reference, which keeps
// the closures in std::function's inline buffer.
struct HpRun {
  const graph::Graph& g;
  Words payload;
  hashing::SetPolynomial poly;
  Interval range;
};

HpTestOutResult run(proto::TreeOps& ops, NodeId root, Interval range,
                    std::uint64_t alpha, std::uint64_t p) {
  // Payload: [alpha, p, lo.hi, lo.lo, hi.hi, hi.lo]; echo: [up, down,
  // degree_sum, tree_size].
  HpRun run{ops.graph(), Words{alpha, p}, hashing::SetPolynomial(alpha, p),
            range};
  push_u128(run.payload, range.lo);
  push_u128(run.payload, range.hi);

  const proto::LocalFn local = [&run](NodeId self,
                                      std::span<const std::uint64_t> payload) {
    assert(std::ranges::equal(payload, run.payload) &&
           "per-run state is a function of the received payload");
    (void)payload;
    const graph::Graph& g = run.g;
    const hashing::SetPolynomial& poly = run.poly;
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
         g.sorted_incident_from(self, run.range.lo, run.range.hi)) {
      if (aug > run.range.hi) break;
      const graph::EdgeNum en = graph::aug_weight_edge_num(aug, en_bits);
      const std::uint64_t term = poly.term(en);
      // Orientation: from smaller external ID to larger, i.e. up when self
      // leads the edge number. The side is selected, not branched to: it
      // goes either way about half the time, so a branch would mispredict
      // on every other entry. One multiply per entry, as with a branch.
      const bool is_up = graph::edge_num_small_id(en, id_bits) == self_id;
      const std::uint64_t product = poly.combine(is_up ? up : down, term);
      up = is_up ? product : up;
      down = is_up ? down : product;
    }
    return Words{up, down, degree_sum, 1};
  };

  // The interior-node products run through the polynomial's Barrett
  // reciprocal too (identical values to mulmod).
  const proto::CombineFn combine =
      [&poly = run.poly](NodeId, NodeId, Words& acc,
                         std::span<const std::uint64_t> child) {
        acc[0] = poly.combine(acc[0], child[0]);
        acc[1] = poly.combine(acc[1], child[1]);
        acc[2] += child[2];
        acc[3] += child[3];
      };

  Words result = ops.broadcast_echo(root, run.payload, local, combine);
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
      [](NodeId, NodeId, Words& acc, std::span<const std::uint64_t> child) {
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
