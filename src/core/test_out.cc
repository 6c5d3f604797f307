#include "core/test_out.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <utility>

namespace kkt::core {

namespace {

// The sweep for a bank of R hashes. R is a compile-time constant, so the
// per-hash loop unrolls, every index is static, and the R accumulators are
// locals the compiler keeps in registers as far as they fit (some spill at
// R = 8). The bank is read in place, as memory operands, which leaves the
// registers to the accumulators. Each entry costs its slice index (no
// division, nothing carried from the previous entry) and R
// multiply-compare-and-xor updates. XOR order is immaterial.
template <std::size_t R>
Words sweep(const SlicedKernel& k, std::span<const AugWeight> row,
            int en_bits) {
  std::uint64_t acc[R] = {};
  const hashing::OddHash* bank = k.bank.data();
  for (const AugWeight aug : row) {
    assert(aug >= k.range.lo);
    if (aug > k.range.hi) break;
    const std::uint64_t bit = std::uint64_t{1} << k.slice_of(aug);
    const graph::EdgeNum en = graph::aug_weight_edge_num(aug, en_bits);
    for (std::size_t r = 0; r < R; ++r) acc[r] ^= bit & bank[r].mask(en);
  }
  return Words(std::span<const std::uint64_t>(acc, R));
}

// sweep<1> .. sweep<kMaxMessageWords>, indexed by bank size - 1.
template <std::size_t... I>
constexpr auto make_sweeps(std::index_sequence<I...>) {
  using Sweep = Words (*)(const SlicedKernel&, std::span<const AugWeight>,
                          int);
  return std::array<Sweep, sizeof...(I)>{&sweep<I + 1>...};
}
constexpr auto kSweeps =
    make_sweeps(std::make_index_sequence<sim::kMaxMessageWords>{});

// One run's state, built once at the initiator. Nodes borrow it through
// one reference, which keeps the closure in std::function's inline buffer.
struct SlicedRun {
  const graph::Graph& g;
  Words payload;
  SlicedKernel kernel;
};

// The broadcast-and-echo both variants share. Bit i of the result is set
// iff any hash saw odd parity in slice i.
std::uint64_t run_sliced(proto::TreeOps& ops, NodeId root, const Words& payload,
                         Interval range, int w,
                         std::span<const hashing::OddHash> bank) {
  const SlicedRun run{ops.graph(), payload, SlicedKernel(range, w, bank)};
  const proto::LocalFn local = [&run](NodeId self,
                                      std::span<const std::uint64_t> received) {
    assert(std::ranges::equal(received, run.payload) &&
           "per-run state is a function of the received payload");
    (void)received;
    const Interval& rng = run.kernel.range;
    return run.kernel.parities(run.g.sorted_incident_from(self, rng.lo, rng.hi),
                               run.g.edge_num_bits());
  };
  const Words result =
      ops.broadcast_echo(root, run.payload, local, proto::combine_xor());
  std::uint64_t positive = 0;
  for (std::uint64_t word : result) positive |= word;
  return positive;
}

}  // namespace

SlicedKernel::SlicedKernel(Interval range, int w,
                           std::span<const hashing::OddHash> bank)
    : range(range), width(slice_width(range, w)), bank(bank) {
  assert(w >= 1 && w <= 64 && !bank.empty() &&
         bank.size() <= sim::kMaxMessageWords);
  assert(range.hi - range.lo <= ~util::u128{0} - 64);  // w * width fits
  const int bits = util::bit_width_u128(range.hi - range.lo);
  shift = bits > 63 ? static_cast<unsigned>(bits - 63) : 0;
  recip = ~std::uint64_t{0} / util::lo64(((width - 1) >> shift) + 1);
}

Words SlicedKernel::parities(std::span<const AugWeight> row,
                             int en_bits) const {
  return kSweeps[bank.size() - 1](*this, row, en_bits);
}

std::uint64_t test_out_sliced(proto::TreeOps& ops, NodeId root,
                              const hashing::OddHash& h, Interval range,
                              int w) {
  // Payload: [multiplier, threshold, lo.hi, lo.lo, hi.hi, hi.lo, w] -- 7
  // words, within the CONGEST budget. A bank of one hash.
  Words payload{h.multiplier(), h.threshold()};
  push_u128(payload, range.lo);
  push_u128(payload, range.hi);
  payload.push_back(static_cast<std::uint64_t>(w));
  return run_sliced(ops, root, payload, range, w, std::span(&h, 1));
}

std::uint64_t test_out_sliced_amplified(proto::TreeOps& ops, NodeId root,
                                        std::uint64_t seed, Interval range,
                                        int w, int reps) {
  assert(reps >= 1 &&
         static_cast<std::size_t>(reps) <= sim::kMaxMessageWords);
  // Payload: [seed, lo.hi, lo.lo, hi.hi, hi.lo, w, reps]; every node could
  // expand the seed into the same bank, so the initiator does it once.
  Words payload{seed};
  push_u128(payload, range.lo);
  push_u128(payload, range.hi);
  payload.push_back(static_cast<std::uint64_t>(w));
  payload.push_back(static_cast<std::uint64_t>(reps));
  hashing::OddHash bank[sim::kMaxMessageWords];
  for (int r = 0; r < reps; ++r) bank[r] = hashing::OddHash::from_seed(seed, r);
  return run_sliced(ops, root, payload, range, w,
                    std::span(bank, static_cast<std::size_t>(reps)));
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
