#include "core/test_out.h"

#include <cassert>
#include <limits>

#include "util/modmath.h"

namespace kkt::core {
namespace {

// Broadcast payload layout: [multiplier, threshold, lo.hi, lo.lo, hi.hi,
// hi.lo, w] -- 7 words, within the CONGEST budget.
Words encode_payload(const hashing::OddHash& h, const Interval& range,
                     int w) {
  Words words{h.multiplier(), h.threshold()};
  push_u128(words, range.lo);
  push_u128(words, range.hi);
  words.push_back(static_cast<std::uint64_t>(w));
  return words;
}

}  // namespace

std::uint64_t test_out_sliced(proto::TreeOps& ops, NodeId root,
                              const hashing::OddHash& h, Interval range,
                              int w) {
  assert(w >= 1 && w <= 64);
  assert(!range.empty());
  const graph::Graph& g = ops.graph();

  const proto::LocalFn local = [&g](NodeId self,
                                    std::span<const std::uint64_t> payload) {
    const hashing::OddHash hash(payload[0], payload[1]);
    const Interval rng{read_u128(payload, 2), read_u128(payload, 4)};
    const int slices = static_cast<int>(payload[6]);
    // Slice geometry is loop-invariant: one reciprocal up front replaces a
    // 128-bit division per in-range edge. The sorted index narrows the walk
    // to the in-range window, and each entry carries its edge number in the
    // low bits of the augmented weight. XOR order is immaterial.
    const util::Recip128 width(slice_width(rng, slices));
    const int en_bits = g.edge_num_bits();
    std::uint64_t bits = 0;
    for (const graph::AugWeight aug :
         g.sorted_incident_range(self, rng.lo, rng.hi)) {
      const auto idx = static_cast<unsigned>(width.div(aug - rng.lo));
      assert(idx < static_cast<unsigned>(slices));
      bits ^= (std::uint64_t{1} << idx)
              & hash.mask(graph::aug_weight_edge_num(aug, en_bits));
    }
    return Words{bits};
  };

  Words result = ops.broadcast_echo(root, encode_payload(h, range, w), local,
                                    proto::combine_xor());
  return result.at(0);
}

std::uint64_t test_out_sliced_amplified(proto::TreeOps& ops, NodeId root,
                                        std::uint64_t seed, Interval range,
                                        int w, int reps) {
  assert(w >= 1 && w <= 64);
  assert(reps >= 1 &&
         static_cast<std::size_t>(reps) <= sim::kMaxMessageWords);
  assert(!range.empty());
  const graph::Graph& g = ops.graph();

  // Payload: [seed, lo.hi, lo.lo, hi.hi, hi.lo, w, reps].
  Words payload{seed};
  push_u128(payload, range.lo);
  push_u128(payload, range.hi);
  payload.push_back(static_cast<std::uint64_t>(w));
  payload.push_back(static_cast<std::uint64_t>(reps));

  const proto::LocalFn local = [&g](NodeId self,
                                    std::span<const std::uint64_t> p) {
    const std::uint64_t sd = p[0];
    const Interval rng{read_u128(p, 1), read_u128(p, 3)};
    const int slices = static_cast<int>(p[5]);
    const int repetitions = static_cast<int>(p[6]);
    // Fixed-capacity hash bank (reps <= kMaxMessageWords by construction):
    // no per-call allocation, and the inner loop is a branch-free sweep of
    // mask-and-xor updates over the bank.
    const util::Recip128 width(slice_width(rng, slices));
    const int en_bits = g.edge_num_bits();
    hashing::OddHash bank[sim::kMaxMessageWords];
    for (int r = 0; r < repetitions; ++r) {
      bank[r] = hashing::OddHash::from_seed(sd, r);
    }
    Words parities(repetitions, 0);
    for (const graph::AugWeight aug :
         g.sorted_incident_range(self, rng.lo, rng.hi)) {
      const auto idx = static_cast<unsigned>(width.div(aug - rng.lo));
      assert(idx < static_cast<unsigned>(slices));
      const std::uint64_t bit = std::uint64_t{1} << idx;
      const graph::EdgeNum en = graph::aug_weight_edge_num(aug, en_bits);
      for (int r = 0; r < repetitions; ++r) {
        parities[r] ^= bit & bank[r].mask(en);
      }
    }
    return parities;
  };

  Words result =
      ops.broadcast_echo(root, std::move(payload), local, proto::combine_xor());
  std::uint64_t positive = 0;
  for (std::uint64_t word : result) positive |= word;
  return positive;
}

bool test_out(proto::TreeOps& ops, NodeId root, const hashing::OddHash& h,
              Interval range) {
  return test_out_sliced(ops, root, h, range, 1) != 0;
}

bool test_out_any(proto::TreeOps& ops, NodeId root,
                  const hashing::OddHash& h) {
  const Interval everything{0, ~util::u128{0} >> 1};
  return test_out(ops, root, h, everything);
}

}  // namespace kkt::core
