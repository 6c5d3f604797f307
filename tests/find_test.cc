#include <gtest/gtest.h>

#include "core/find_any.h"
#include "core/find_min.h"
#include "graph/mst_oracle.h"
#include "test_util.h"

namespace kkt::core {
namespace {

using graph::EdgeIdx;
using graph::NodeId;
using test::make_gnm_world;
using test::mark_msf;
using test::World;

struct CutWorld {
  test::World w;
  NodeId root;
  std::vector<char> side;
  std::optional<EdgeIdx> lightest;  // oracle answer
};

CutWorld make_cut_world(std::size_t n, std::size_t m, std::uint64_t seed,
                        std::size_t cut_index = 0,
                        test::NetKind kind = test::NetKind::kSync) {
  CutWorld cw{make_gnm_world(n, m, seed, kind), 0, {}, std::nullopt};
  const auto msf = mark_msf(cw.w);
  const EdgeIdx split = msf[cut_index % msf.size()];
  cw.w.forest->clear_edge(split);
  cw.root = cw.w.g->edge(split).u;
  cw.side = test::side_of(cw.w, cw.root);
  cw.lightest = graph::min_cut_edge(*cw.w.g, cw.side);
  return cw;
}

// gtest prints a parameter without a PrintTo as its raw bytes, and those
// bytes become part of the test ID; every field is 8 bytes wide, so the
// struct has no uninitialised padding to print.
struct FindCase {
  std::size_t n, m;
  std::uint64_t seed;
  std::uint64_t w;  // FindMin slice width
};

class FindMinSweep : public ::testing::TestWithParam<FindCase> {};

TEST_P(FindMinSweep, ReturnsTheLightestCutEdge) {
  const auto [n, m, seed, w] = GetParam();
  for (std::size_t cut = 0; cut < 3; ++cut) {
    CutWorld cw = make_cut_world(n, m, seed + cut, cut * 7);
    proto::TreeOps ops(*cw.w.net, graph::TreeView(*cw.w.forest));
    FindMinConfig cfg;
    cfg.w = static_cast<int>(w);
    const FindMinResult res = find_min(ops, cw.root, cfg);
    ASSERT_TRUE(cw.lightest.has_value());  // split a tree edge of a
                                           // connected graph: cut nonempty
    ASSERT_TRUE(res.found) << "n=" << n << " m=" << m << " cut=" << cut;
    EXPECT_EQ(res.edge_num, cw.w.g->edge_num(*cw.lightest));
    EXPECT_EQ(res.aug, cw.w.g->aug_weight(*cw.lightest));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FindMinSweep,
    ::testing::Values(FindCase{4, 5, 1, 64}, FindCase{8, 20, 2, 64},
                      FindCase{16, 60, 3, 64}, FindCase{32, 150, 4, 64},
                      FindCase{64, 500, 5, 64}, FindCase{16, 60, 6, 2},
                      FindCase{16, 60, 7, 8}, FindCase{32, 150, 8, 16},
                      FindCase{48, 300, 9, 32}));

TEST(FindMin, EmptyCutReturnsEmpty) {
  World w = make_gnm_world(20, 60, 11);
  mark_msf(w);
  proto::TreeOps ops(*w.net, graph::TreeView(*w.forest));
  const FindMinResult res = find_min(ops, 0);
  EXPECT_FALSE(res.found);
  EXPECT_FALSE(res.stats.budget_exhausted);
}

TEST(FindMin, IsolatedSingletonNode) {
  util::Rng rng(12);
  auto g = std::make_unique<graph::Graph>(3, rng);
  g->add_edge(0, 1, 5);
  World w = test::make_world(std::move(g), 12);
  // Node 2 is isolated: no incident edges at all.
  proto::TreeOps ops(*w.net, graph::TreeView(*w.forest));
  EXPECT_FALSE(find_min(ops, 2).found);
}

TEST(FindMin, SingletonWithCut) {
  // A lone unmarked node in a connected graph: its tree is {v}; the cut is
  // all its incident edges and the answer is its lightest incident edge.
  World w = make_gnm_world(10, 30, 13);
  // Forest stays empty: each node is a singleton tree.
  proto::TreeOps ops(*w.net, graph::TreeView(*w.forest));
  for (NodeId v = 0; v < 10; ++v) {
    std::vector<char> side(10, 0);
    side[v] = 1;
    const auto oracle = graph::min_cut_edge(*w.g, side);
    ASSERT_TRUE(oracle.has_value());
    const FindMinResult res = find_min(ops, v);
    ASSERT_TRUE(res.found);
    EXPECT_EQ(res.edge_num, w.g->edge_num(*oracle));
  }
}

TEST(FindMin, WorksOnAsyncNetwork) {
  CutWorld cw = make_cut_world(24, 100, 14, 1, test::NetKind::kAsync);
  proto::TreeOps ops(*cw.w.net, graph::TreeView(*cw.w.forest));
  const FindMinResult res = find_min(ops, cw.root);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.edge_num, cw.w.g->edge_num(*cw.lightest));
}

TEST(FindMinC, SucceedsAtLeastHalfTheTime) {
  // Lemma 2: probability >= 2/3 - n^-c; and failures must be empty answers,
  // never wrong edges.
  int successes = 0, wrong = 0;
  constexpr int kTrials = 40;
  for (int t = 0; t < kTrials; ++t) {
    CutWorld cw = make_cut_world(16, 50, 100 + t, t);
    proto::TreeOps ops(*cw.w.net, graph::TreeView(*cw.w.forest));
    const FindMinResult res = find_min_c(ops, cw.root);
    if (res.found) {
      if (res.edge_num == cw.w.g->edge_num(*cw.lightest)) {
        ++successes;
      } else {
        ++wrong;
      }
    }
  }
  EXPECT_EQ(wrong, 0);
  EXPECT_GE(successes, kTrials / 2);
}

TEST(FindMin, BroadcastEchoCountIsLogarithmicNotLinear) {
  // O(log n / log log n) broadcast-and-echoes per call (Lemma 2): with
  // w = 64 and a ~84-bit augmented range, expect ~tens, not hundreds.
  CutWorld cw = make_cut_world(64, 600, 15);
  proto::TreeOps ops(*cw.w.net, graph::TreeView(*cw.w.forest));
  const auto before = cw.w.net->metrics().broadcast_echoes;
  const FindMinResult res = find_min(ops, cw.root);
  ASSERT_TRUE(res.found);
  const auto bes = cw.w.net->metrics().broadcast_echoes - before;
  EXPECT_LE(bes, 200u);
  EXPECT_GE(bes, 15u);  // at least one TestOut per narrowing
}

// --- FindAny -----------------------------------------------------------------

class FindAnySweep : public ::testing::TestWithParam<FindCase> {};

TEST_P(FindAnySweep, ReturnsAGenuineCutEdge) {
  const auto [n, m, seed, w] = GetParam();
  (void)w;
  for (std::size_t cut = 0; cut < 3; ++cut) {
    CutWorld cw = make_cut_world(n, m, seed + 50 + cut, cut * 5);
    proto::TreeOps ops(*cw.w.net, graph::TreeView(*cw.w.forest));
    const FindAnyResult res = find_any(ops, cw.root);
    ASSERT_TRUE(res.found);
    const auto e = test::edge_by_num(*cw.w.g, res.edge_num);
    ASSERT_TRUE(e.has_value()) << "returned a non-existent edge";
    EXPECT_NE(cw.side[cw.w.g->edge(*e).u], cw.side[cw.w.g->edge(*e).v])
        << "returned an edge that does not leave the tree";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, FindAnySweep,
    ::testing::Values(FindCase{4, 5, 1, 0}, FindCase{8, 20, 2, 0},
                      FindCase{16, 60, 3, 0}, FindCase{32, 150, 4, 0},
                      FindCase{64, 500, 5, 0}, FindCase{100, 1500, 6, 0}));

TEST(FindAny, EmptyCutReturnsEmpty) {
  World w = make_gnm_world(20, 60, 21);
  mark_msf(w);
  proto::TreeOps ops(*w.net, graph::TreeView(*w.forest));
  const FindAnyResult res = find_any(ops, 0);
  EXPECT_FALSE(res.found);
  EXPECT_TRUE(res.stats.gate_empty);
}

TEST(FindAny, SingleCutEdgeIsFoundImmediatelyOften) {
  // When |W| = 1 the isolation succeeds with probability ~1/2 or better.
  int total_attempts = 0, runs = 0;
  for (std::uint64_t seed = 1; seed <= 15; ++seed) {
    util::Rng rng(seed);
    auto g = std::make_unique<graph::Graph>(
        graph::random_tree(12, {1u << 10}, rng));
    World w = test::make_world(std::move(g), seed);
    const auto msf = graph::kruskal_msf(*w.g);
    for (EdgeIdx e : msf) w.forest->mark_edge(e);
    const EdgeIdx split = msf[seed % msf.size()];
    w.forest->clear_edge(split);  // tree graph: exactly one cut edge
    proto::TreeOps ops(*w.net, graph::TreeView(*w.forest));
    const FindAnyResult res = find_any(ops, w.g->edge(split).u);
    ASSERT_TRUE(res.found);
    EXPECT_EQ(res.edge_num, w.g->edge_num(split));
    total_attempts += res.stats.attempts;
    ++runs;
  }
  EXPECT_LE(total_attempts, runs * 8);  // expected ~2 attempts per run
}

TEST(FindAnyC, SucceedsAtConstantRate) {
  int successes = 0;
  constexpr int kTrials = 60;
  for (int t = 0; t < kTrials; ++t) {
    CutWorld cw = make_cut_world(16, 40, 300 + t, t);
    proto::TreeOps ops(*cw.w.net, graph::TreeView(*cw.w.forest));
    const FindAnyResult res = find_any_c(ops, cw.root);
    if (res.found) {
      const auto e = test::edge_by_num(*cw.w.g, res.edge_num);
      ASSERT_TRUE(e.has_value());
      EXPECT_NE(cw.side[cw.w.g->edge(*e).u], cw.side[cw.w.g->edge(*e).v]);
      ++successes;
    }
  }
  // Lemma 5 guarantees >= 1/16 per attempt; empirically much better.
  EXPECT_GE(successes, kTrials / 16);
}

TEST(FindAny, IntervalRestrictedSearch) {
  CutWorld cw = make_cut_world(20, 80, 22);
  proto::TreeOps ops(*cw.w.net, graph::TreeView(*cw.w.forest));
  ASSERT_TRUE(cw.lightest.has_value());
  const graph::AugWeight lw = cw.w.g->aug_weight(*cw.lightest);
  // Restrict to exactly the lightest cut edge's weight.
  FindAnyConfig cfg;
  cfg.range = Interval{lw, lw};
  const FindAnyResult res = find_any(ops, cw.root, cfg);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.edge_num, cw.w.g->edge_num(*cw.lightest));
  // Restrict strictly below it: empty.
  cfg.range = Interval{0, lw - 1};
  EXPECT_FALSE(find_any(ops, cw.root, cfg).found);
}

TEST(FindAny, WorksOnAsyncNetwork) {
  CutWorld cw = make_cut_world(30, 120, 23, 2, test::NetKind::kAsync);
  proto::TreeOps ops(*cw.w.net, graph::TreeView(*cw.w.forest));
  const FindAnyResult res = find_any(ops, cw.root);
  ASSERT_TRUE(res.found);
}

TEST(FindAny, CheaperThanFindMin) {
  // The asymptotic separation (expected O(1) vs O(log n / log log n)
  // broadcast-and-echoes) should already show at moderate sizes.
  std::uint64_t bes_any = 0, bes_min = 0;
  for (int t = 0; t < 10; ++t) {
    CutWorld cw = make_cut_world(48, 400, 400 + t, t);
    proto::TreeOps ops(*cw.w.net, graph::TreeView(*cw.w.forest));
    const auto b0 = cw.w.net->metrics().broadcast_echoes;
    ASSERT_TRUE(find_any(ops, cw.root).found);
    const auto b1 = cw.w.net->metrics().broadcast_echoes;
    ASSERT_TRUE(find_min(ops, cw.root).found);
    const auto b2 = cw.w.net->metrics().broadcast_echoes;
    bes_any += b1 - b0;
    bes_min += b2 - b1;
  }
  EXPECT_LT(bes_any * 2, bes_min);
}

}  // namespace
}  // namespace kkt::core
