#include "core/find_min.h"

#include <bit>
#include <cassert>
#include <cmath>

#include "core/hp_test_out.h"
#include "core/test_out.h"
#include "hashing/odd_hash.h"
#include "util/bits.h"

namespace kkt::core {

// Step 2: one broadcast-and-echo for maxWt(Tx) (as an augmented weight over
// all edges incident to tree nodes; any leaving edge is incident to a tree
// node, so this bounds the search range from above).
graph::AugWeight max_incident_aug(proto::TreeOps& ops, NodeId root) {
  const graph::Graph& g = ops.graph();
  const proto::LocalFn local = [&g](NodeId self,
                                    std::span<const std::uint64_t>) {
    // Largest incident aug weight == last entry of the sorted index.
    const std::span<const graph::AugWeight> row = g.sorted_incident(self);
    const graph::AugWeight best = row.empty() ? 0 : row.back();
    Words words;
    push_u128(words, best);
    return words;
  };
  const proto::CombineFn combine =
      [](NodeId, NodeId, Words& acc, std::span<const std::uint64_t> child) {
        const util::u128 a = read_u128(acc, 0);
        const util::u128 c = read_u128(child, 0);
        if (c > a) {
          acc[0] = util::hi64(c);
          acc[1] = util::lo64(c);
        }
      };
  Words result = ops.broadcast_echo(root, Words{}, local, combine);
  return read_u128(result, 0);
}

namespace {

int iteration_budget(const FindMinConfig& cfg, std::size_t n,
                     const Interval& range) {
  // Narrowings needed: ceil(lg(range) / lg(w)).
  const int range_bits = util::bit_width_u128(range.size());
  const int w_bits = std::max(1, util::floor_log2(
                                     static_cast<std::uint64_t>(cfg.w)));
  const int narrowings = (range_bits + w_bits - 1) / w_bits;
  const double lg_n =
      std::log2(static_cast<double>(std::max<std::size_t>(n, 2)));
  // Effective per-iteration success with amplified TestOut, each hash
  // assumed to succeed with probability 1/8.
  const double q = 1.0 - std::pow(1.0 - 0.125, cfg.hash_reps);
  if (cfg.capped) {
    // FindMin-C: Count < (2c/q) * lg(maxWt) / lg(w).
    return static_cast<int>(std::ceil(2.0 * cfg.c / q * narrowings)) + 1;
  }
  // FindMin: Count < (c/q) lg n + (c/q) * lg(maxWt) / lg(w).
  return static_cast<int>(std::ceil(cfg.c / q * (lg_n + narrowings))) + 1;
}

}  // namespace

FindMinResult find_min(proto::TreeOps& ops, NodeId root,
                       const FindMinConfig& cfg) {
  assert(cfg.w >= 2 && cfg.w <= 64);
  FindMinResult res;
  util::Rng& rng = ops.net().node_rng(root);

  const graph::AugWeight max_aug = max_incident_aug(ops, root);
  if (max_aug == 0) return res;  // isolated tree: no incident edges at all
  Interval range = full_range(max_aug);
  const int budget = iteration_budget(cfg, ops.graph().node_count(), range);

  while (res.stats.iterations < budget) {
    ++res.stats.iterations;

    // Steps 4-5: one (amplified) sliced TestOut over the current range.
    const std::uint64_t bits =
        cfg.hash_reps > 1
            ? test_out_sliced_amplified(ops, root, rng.next(), range, cfg.w,
                                        cfg.hash_reps)
            : test_out_sliced(ops, root, hashing::OddHash::random(rng), range,
                              cfg.w);

    if (bits == 0) {
      // No slice tested positive. Verify w.h.p. that the whole range is
      // empty (the paper's TestLow over [0, j_min - 1] with min = w);
      // if HP disagrees, TestOut simply missed -- retry.
      const auto low = hp_test_out(ops, root, Interval{0, range.hi});
      if (!low.leaving) return res;  // empty cut: return the empty answer
      continue;
    }

    // Step 6: lightest positive slice, then the verification tests.
    const int min_idx = std::countr_zero(bits);
    const Interval cand = slice(range, cfg.w, min_idx);
    assert(!cand.empty());

    // TestLow: does anything lighter than the chosen slice leave the tree?
    // When min_idx == 0, [0, cand.lo - 1] is exactly the region the
    // previous iteration certified empty (optionally re-checked).
    if (min_idx > 0 || !cfg.skip_certified_low_check) {
      const bool lighter_leaks =
          cand.lo > 0 &&
          hp_test_out(ops, root, Interval{0, cand.lo - 1}).leaving;
      if (lighter_leaks) continue;  // TestOut missed a lighter slice: retry
    }

    // TestInterval: the set TestOut bit already certifies a leaving edge in
    // cand deterministically (an empty set never has odd parity), so the
    // paper's w.h.p. re-check is redundant unless faithfulness is requested.
    // If the faithful check disagrees (a rare Schwartz-Zippel collision) we
    // retry rather than return a wrong empty answer -- step 7(b)'s empty
    // return is for the no-bit case above.
    if (!cfg.skip_redundant_interval_check) {
      const auto interval_check = hp_test_out(ops, root, cand);
      if (!interval_check.leaving) continue;
    }

    // Step 7(a): narrow, or finish when a single augmented weight remains.
    if (cand.lo == cand.hi) {
      res.found = true;
      res.aug = cand.lo;
      res.edge_num =
          graph::aug_weight_edge_num(cand.lo, ops.graph().edge_num_bits());
      return res;
    }
    range = cand;
    ++res.stats.narrowings;
  }

  res.stats.budget_exhausted = true;
  return res;  // step 8: budget exhausted, return the empty answer
}

}  // namespace kkt::core
