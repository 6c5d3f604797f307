#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

#include "core/hp_test_out.h"
#include "core/test_out.h"
#include "core/wire.h"
#include "graph/mst_oracle.h"
#include "hashing/odd_hash.h"
#include "test_util.h"

namespace kkt::core {
namespace {

using graph::AugWeight;
using graph::EdgeIdx;
using graph::NodeId;
using test::make_gnm_world;
using test::mark_msf;
using test::World;

// A world whose tree is the MSF with one tree edge unmarked, creating a
// nonempty cut (unless the removed edge is a bridge of the graph).
struct CutWorld {
  World w;
  NodeId root;
  std::vector<char> side;
};

CutWorld make_cut_world(std::size_t n, std::size_t m, std::uint64_t seed,
                        std::size_t cut_index = 0) {
  CutWorld cw{make_gnm_world(n, m, seed), 0, {}};
  const auto msf = mark_msf(cw.w);
  const EdgeIdx split = msf[cut_index % msf.size()];
  cw.w.forest->clear_edge(split);
  cw.root = cw.w.g->edge(split).u;
  cw.side = test::side_of(cw.w, cw.root);
  return cw;
}

TEST(Intervals, SliceArithmetic) {
  const Interval range{10, 29};  // 20 values
  EXPECT_EQ(slice_width(range, 4), 5u);
  EXPECT_EQ(static_cast<std::uint64_t>(slice(range, 4, 0).lo), 10u);
  EXPECT_EQ(static_cast<std::uint64_t>(slice(range, 4, 0).hi), 14u);
  EXPECT_EQ(static_cast<std::uint64_t>(slice(range, 4, 3).lo), 25u);
  EXPECT_EQ(static_cast<std::uint64_t>(slice(range, 4, 3).hi), 29u);
  for (std::uint64_t x = 10; x <= 29; ++x) {
    const int i = slice_index(range, 4, x);
    EXPECT_TRUE(slice(range, 4, i).contains(x));
  }
  // Range smaller than w: trailing slices are empty.
  const Interval tiny{5, 7};
  EXPECT_FALSE(slice(tiny, 8, 0).empty());
  EXPECT_TRUE(slice(tiny, 8, 3).empty());
}

TEST(Intervals, U128Boundaries) {
  const Interval range{0, (util::u128{1} << 100) - 1};
  const util::u128 width = slice_width(range, 64);
  EXPECT_EQ(width, util::u128{1} << 94);
  EXPECT_EQ(slice(range, 64, 63).hi, range.hi);
}

// The sliced kernel against a per-entry reference: each in-range entry's
// slice from slice_index, each hash expanded from the seed per node. The
// kernel gets the row from its first entry >= range.lo, as the Graph walk
// hands it over; entries below, inside and above the range are mixed in.
void expect_kernel_matches_reference(const std::vector<AugWeight>& row,
                                     const Interval& range, int w,
                                     std::uint64_t seed, int reps) {
  constexpr int kEnBits = 20;
  std::vector<hashing::OddHash> bank;
  for (int r = 0; r < reps; ++r) {
    bank.push_back(hashing::OddHash::from_seed(seed, r));
  }
  Words expected(static_cast<std::size_t>(reps), 0);
  for (const AugWeight aug : row) {
    if (!range.contains(aug)) continue;
    const std::uint64_t bit = std::uint64_t{1} << slice_index(range, w, aug);
    const graph::EdgeNum en = graph::aug_weight_edge_num(aug, kEnBits);
    for (int r = 0; r < reps; ++r) {
      if (hashing::OddHash::from_seed(seed, r)(en)) expected[r] ^= bit;
    }
  }
  const SlicedKernel kernel(range, w, bank);
  const auto first = std::lower_bound(row.begin(), row.end(), range.lo);
  const Words got = kernel.parities(
      std::span<const AugWeight>(row).subspan(
          static_cast<std::size_t>(first - row.begin())),
      kEnBits);
  ASSERT_EQ(got.size(), expected.size());
  for (std::size_t r = 0; r < got.size(); ++r) {
    EXPECT_EQ(got[r], expected[r])
        << "hash " << r << ", w=" << w << ", range size "
        << static_cast<std::uint64_t>(range.size());
  }
}

TEST(SlicedKernel, MatchesPerEntryReferenceOnRandomRows) {
  util::Rng rng(2015);
  const util::u128 base = util::u128{7} << 90;  // aug weights above 2^64
  // Range sizes smaller than w, not divisible by w, and divisible by w.
  const struct {
    std::uint64_t size;
    int w;
  } shapes[] = {{3, 8},    {5, 64},    {1, 1},         {100, 7},
                {1000, 64}, {640, 64}, {1u << 20, 13}, {999983, 64}};
  for (const auto& shape : shapes) {
    const Interval range{base, base + shape.size - 1};
    for (int trial = 0; trial < 20; ++trial) {
      // Entries spread over [lo - size/2, hi + size/2], ascending.
      const std::size_t len = rng.below(80);
      std::vector<AugWeight> row;
      for (std::size_t i = 0; i < len; ++i) {
        row.push_back(range.lo - shape.size / 2 +
                      rng.below(2 * shape.size + 1));
      }
      row.push_back(range.lo);  // the lower_bound lands on lo exactly
      std::sort(row.begin(), row.end());
      const int reps = 1 + static_cast<int>(rng.below(8));
      expect_kernel_matches_reference(row, range, shape.w, rng.next(), reps);
    }
  }
}

TEST(SlicedKernel, EntriesExactlyOnSliceBoundaries) {
  // Every slice's first and last value, and the values just outside the
  // range: the kernel's compare with the end of its estimated slice
  // decides exactly these entries, so an off-by-one would show here.
  const util::u128 base = util::u128{3} << 70;
  for (const int w : {1, 2, 7, 64}) {
    for (const std::uint64_t size : {std::uint64_t{5}, std::uint64_t{64},
                                     std::uint64_t{1001}}) {
      const Interval range{base, base + size - 1};
      std::vector<AugWeight> row{range.lo - 1, range.hi + 1};
      for (int i = 0; i < w; ++i) {
        const Interval sl = slice(range, w, i);
        if (sl.empty()) continue;
        row.push_back(sl.lo);
        row.push_back(sl.hi);
      }
      std::sort(row.begin(), row.end());
      // Every bank size: each is its own instance of the kernel's sweep.
      for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
        for (int reps = 1;
             reps <= static_cast<int>(sim::kMaxMessageWords); ++reps) {
          expect_kernel_matches_reference(row, range, w, seed, reps);
        }
      }
    }
  }
}

// Uniform in [0, n) for n >= 1 (the modulo bias is immaterial here).
util::u128 below_u128(util::Rng& rng, util::u128 n) {
  return util::make_u128(rng.next(), rng.next()) % n;
}

TEST(SlicedKernel, MatchesReferenceOnWideRanges) {
  // Ranges of 2^64 values and more, where the kernel drops low bits before
  // its 64-bit multiply (shift > 0), and the w = 1 range of exactly 2^64
  // whose slice width does not fit in 64 bits. FindMin's first TestOut
  // runs over full_range(max_aug) with augmented weights near 2^82.
  util::Rng rng(29);
  const util::u128 base = util::u128{7} << 90;
  const util::u128 two64 = util::u128{1} << 64;
  std::vector<Interval> ranges;
  for (const util::u128 size : {two64 - 1, two64, two64 + 1,
                                util::u128{1} << 70, util::u128{1} << 100}) {
    ranges.push_back(Interval{base, base + size - 1});
  }
  ranges.push_back(full_range((util::u128{5} << 80) + 12345));
  for (const Interval& range : ranges) {
    for (const int w : {1, 2, 63, 64}) {
      std::vector<AugWeight> row{range.hi + 1};
      if (range.lo > 0) row.push_back(range.lo - 1);
      for (int i = 0; i < w; ++i) {
        const Interval sl = slice(range, w, i);
        for (const AugWeight aug : {sl.lo, sl.lo + 1, sl.hi - 1, sl.hi}) {
          row.push_back(aug);
        }
      }
      for (int i = 0; i < 64; ++i) {
        row.push_back(range.lo + below_u128(rng, range.size()));
      }
      std::sort(row.begin(), row.end());
      for (int reps = 1; reps <= static_cast<int>(sim::kMaxMessageWords);
           ++reps) {
        expect_kernel_matches_reference(row, range, w, rng.next(), reps);
      }
    }
  }
}

TEST(SlicedKernel, SliceIndexMatchesWireOnEveryShift) {
  // Seeded property: for every range bit width from 1 to 127 (shift 0 up
  // to 64), random ranges, w and entries -- half of them drawn next to a
  // slice boundary -- get the slice that wire.h's division assigns.
  util::Rng rng(2929);
  const hashing::OddHash bank[1] = {hashing::OddHash::from_seed(1, 0)};
  long draws = 0;
  for (int bits = 1; bits <= 127; ++bits) {
    for (int trial = 0; trial < 40; ++trial) {
      const util::u128 top = util::u128{1} << (bits - 1);
      const util::u128 span = top | below_u128(rng, top);
      const util::u128 lo = below_u128(rng, ~util::u128{0} - span);
      const Interval r{lo, lo + span};
      const int w = 1 + static_cast<int>(rng.below(64));
      const SlicedKernel kernel(r, w, bank);
      const util::u128 width = slice_width(r, w);
      for (int i = 0; i < 20; ++i) {
        util::u128 x = below_u128(rng, span + 1);
        if (i % 2 == 1) {  // within 2 of a slice start, inside the range
          const util::u128 edge = width * rng.below(static_cast<unsigned>(w));
          x = std::min(span, edge + rng.below(5));
          x = x < 2 ? x : x - 2;
        }
        const AugWeight aug = r.lo + x;
        ASSERT_EQ(static_cast<int>(kernel.slice_of(aug)),
                  slice_index(r, w, aug))
            << "bits " << bits << ", w " << w << ", shift " << kernel.shift;
        ++draws;
      }
    }
  }
  EXPECT_GE(draws, 100000);
}

TEST(TestOut, EmptyCutAlwaysFalse) {
  // The whole graph is one tree: no edge leaves it.
  World w = make_gnm_world(20, 60, 1);
  mark_msf(w);
  proto::TreeOps ops(*w.net, graph::TreeView(*w.forest));
  util::Rng rng(99);
  for (int t = 0; t < 50; ++t) {
    const auto h = hashing::OddHash::random(rng);
    EXPECT_FALSE(test_out_any(ops, 0, h));
  }
}

TEST(TestOut, NonemptyCutDetectedOften) {
  CutWorld cw = make_cut_world(24, 80, 2);
  proto::TreeOps ops(*cw.w.net, graph::TreeView(*cw.w.forest));
  util::Rng rng(100);
  int hits = 0;
  constexpr int kTrials = 300;
  for (int t = 0; t < kTrials; ++t) {
    hits += test_out_any(ops, cw.root, hashing::OddHash::random(rng));
  }
  // Guaranteed >= 1/8; empirically ~1/3+. Allow generous slack.
  EXPECT_GE(hits, kTrials / 8 - 20);
}

TEST(TestOut, SetBitImpliesCutEdgeInSlice) {
  // One-sided exactness of the sliced variant: a set bit certifies a cut
  // edge in that slice.
  for (std::uint64_t seed : {3ull, 4ull, 5ull}) {
    CutWorld cw = make_cut_world(20, 50, seed);
    proto::TreeOps ops(*cw.w.net, graph::TreeView(*cw.w.forest));
    util::Rng rng(seed);
    const Interval range{0, cw.w.g->aug_upper_bound(1u << 21)};
    const int w = 16;

    // Ground truth: which slices contain cut edges?
    std::uint64_t occupied = 0;
    for (EdgeIdx e : cw.w.g->alive_edge_indices()) {
      const auto& ed = cw.w.g->edge(e);
      if (cw.side[ed.u] == cw.side[ed.v]) continue;
      occupied |= std::uint64_t{1}
                  << slice_index(range, w, cw.w.g->aug_weight(e));
    }
    for (int t = 0; t < 40; ++t) {
      const std::uint64_t bits = test_out_sliced(
          ops, cw.root, hashing::OddHash::random(rng), range, w);
      EXPECT_EQ(bits & ~occupied, 0u) << "false positive slice";
    }
  }
}

TEST(TestOut, IntervalRestrictsDetection) {
  CutWorld cw = make_cut_world(16, 40, 6);
  proto::TreeOps ops(*cw.w.net, graph::TreeView(*cw.w.forest));
  util::Rng rng(6);
  const auto cut = graph::min_cut_edge(*cw.w.g, cw.side);
  ASSERT_TRUE(cut.has_value());
  const graph::AugWeight lightest = cw.w.g->aug_weight(*cut);
  // Interval strictly below the lightest cut edge: always false.
  for (int t = 0; t < 50; ++t) {
    EXPECT_FALSE(test_out(ops, cw.root, hashing::OddHash::random(rng),
                          Interval{0, lightest - 1}));
  }
}

TEST(HpTestOut, EmptyCutAlwaysFalse) {
  World w = make_gnm_world(30, 90, 7);
  mark_msf(w);
  proto::TreeOps ops(*w.net, graph::TreeView(*w.forest));
  for (int t = 0; t < 50; ++t) {
    EXPECT_FALSE(hp_test_out_any(ops, 0).leaving);
  }
}

TEST(HpTestOut, NonemptyCutDetected) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    CutWorld cw = make_cut_world(16, 48, seed, seed);
    proto::TreeOps ops(*cw.w.net, graph::TreeView(*cw.w.forest));
    const auto res = hp_test_out_any(ops, cw.root);
    EXPECT_TRUE(res.leaving) << "seed " << seed;
  }
}

TEST(HpTestOut, ReportsDegreeSumAndTreeSize) {
  CutWorld cw = make_cut_world(18, 60, 8);
  proto::TreeOps ops(*cw.w.net, graph::TreeView(*cw.w.forest));
  const auto res = hp_test_out_any(ops, cw.root);
  std::uint64_t expect_deg = 0, expect_nodes = 0;
  for (NodeId v = 0; v < cw.w.g->node_count(); ++v) {
    if (!cw.side[v]) continue;
    ++expect_nodes;
    expect_deg += cw.w.g->degree(v);
  }
  EXPECT_EQ(res.degree_sum, expect_deg);
  EXPECT_EQ(res.tree_size, expect_nodes);
}

TEST(HpTestOut, IntervalFiltering) {
  CutWorld cw = make_cut_world(16, 50, 9);
  proto::TreeOps ops(*cw.w.net, graph::TreeView(*cw.w.forest));
  const auto cut = graph::min_cut_edge(*cw.w.g, cw.side);
  ASSERT_TRUE(cut.has_value());
  const graph::AugWeight lightest = cw.w.g->aug_weight(*cut);
  EXPECT_FALSE(hp_test_out(ops, cw.root, Interval{0, lightest - 1}).leaving);
  EXPECT_TRUE(
      hp_test_out(ops, cw.root, Interval{lightest, lightest}).leaving);
  // Empty interval.
  EXPECT_FALSE(hp_test_out(ops, cw.root, Interval{5, 4}).leaving);
}

TEST(HpTestOut, PrimeDiscoveryVariantAgrees) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    CutWorld cw = make_cut_world(14, 40, seed, 2 * seed);
    proto::TreeOps ops(*cw.w.net, graph::TreeView(*cw.w.forest));
    const Interval all{0, ~util::u128{0} >> 1};
    const auto res = hp_test_out_discover_prime(ops, cw.root, all, 1e-9);
    EXPECT_TRUE(res.leaving) << "seed " << seed;
  }
  // And on an empty cut:
  World w = make_gnm_world(12, 30, 42);
  mark_msf(w);
  proto::TreeOps ops(*w.net, graph::TreeView(*w.forest));
  const Interval all{0, ~util::u128{0} >> 1};
  EXPECT_FALSE(hp_test_out_discover_prime(ops, 0, all, 1e-9).leaving);
}

TEST(TestOut, MessageBudgetRespected) {
  CutWorld cw = make_cut_world(40, 200, 10);
  proto::TreeOps ops(*cw.w.net, graph::TreeView(*cw.w.forest));
  util::Rng rng(10);
  test_out_sliced(ops, cw.root, hashing::OddHash::random(rng),
                  Interval{0, cw.w.g->aug_upper_bound(1u << 20)}, 64);
  hp_test_out_any(ops, cw.root);
  EXPECT_EQ(cw.w.net->metrics().oversized_messages, 0u);
}

}  // namespace
}  // namespace kkt::core
