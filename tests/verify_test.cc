#include <gtest/gtest.h>

#include "core/build_mst.h"
#include "core/verify.h"
#include "graph/mst_oracle.h"
#include "test_util.h"

namespace kkt::core {
namespace {

using graph::EdgeIdx;
using graph::NodeId;
using test::make_gnm_world;
using test::World;

TEST(VerifySpanning, AcceptsACorrectForest) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    World w = make_gnm_world(24, 90, seed);
    test::mark_msf(w);
    const VerifySpanningResult res = verify_spanning(*w.net, *w.forest);
    EXPECT_TRUE(res.properly_marked);
    EXPECT_TRUE(res.acyclic);
    EXPECT_TRUE(res.maximal);
    EXPECT_TRUE(res.spanning_forest());
    EXPECT_EQ(res.components, 1u);
  }
}

TEST(VerifySpanning, DetectsNonMaximalForest) {
  World w = make_gnm_world(20, 60, 6);
  const auto msf = test::mark_msf(w);
  w.forest->clear_edge(msf[4]);  // two components, joinable
  const VerifySpanningResult res = verify_spanning(*w.net, *w.forest);
  EXPECT_TRUE(res.acyclic);
  EXPECT_FALSE(res.maximal);
  EXPECT_FALSE(res.spanning_forest());
  EXPECT_EQ(res.components, 2u);
}

TEST(VerifySpanning, DetectsCycle) {
  util::Rng rng(7);
  auto g = std::make_unique<graph::Graph>(graph::ring(8, {4}, rng));
  World w = test::make_world(std::move(g), 7);
  for (EdgeIdx e : w.g->alive_edge_indices()) w.forest->mark_edge(e);
  const VerifySpanningResult res = verify_spanning(*w.net, *w.forest);
  EXPECT_FALSE(res.acyclic);
  EXPECT_FALSE(res.spanning_forest());
}

TEST(VerifySpanning, DetectsImproperMarking) {
  World w = make_gnm_world(10, 30, 8);
  const auto msf = test::mark_msf(w);
  w.forest->unmark_half(msf[0], w.g->edge(msf[0]).u);  // dangling half-mark
  const VerifySpanningResult res = verify_spanning(*w.net, *w.forest);
  EXPECT_FALSE(res.properly_marked);
  EXPECT_FALSE(res.spanning_forest());
}

TEST(VerifySpanning, HandlesDisconnectedGraphs) {
  util::Rng rng(9);
  auto g = std::make_unique<graph::Graph>(7, rng);
  g->add_edge(0, 1, 1);
  g->add_edge(1, 2, 2);
  g->add_edge(3, 4, 3);
  World w = test::make_world(std::move(g), 9);
  test::mark_msf(w);
  const VerifySpanningResult res = verify_spanning(*w.net, *w.forest);
  EXPECT_TRUE(res.spanning_forest());
  EXPECT_EQ(res.components, 4u);  // {0,1,2}, {3,4}, {5}, {6}
}

TEST(VerifySpanning, CostsLinearMessages) {
  World w = make_gnm_world(64, 1500, 10);
  test::mark_msf(w);
  verify_spanning(*w.net, *w.forest);
  // One election (~2n) plus one HP-TestOut (~2n) -- far below m.
  EXPECT_LE(w.net->metrics().messages, 6u * 64);
}

TEST(VerifyMst, AcceptsTheTrueMst) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    World w = make_gnm_world(20, 80, seed);
    test::mark_msf(w);
    const VerifyMstResult res = verify_mst(*w.net, *w.forest, 6);
    EXPECT_TRUE(res.looks_like_mst()) << "seed " << seed;
    EXPECT_EQ(res.violations, 0u);
    EXPECT_EQ(res.edges_checked, 6u);
    // The audit must leave the forest untouched.
    EXPECT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                     graph::kruskal_msf(*w.g)));
  }
}

TEST(VerifyMst, RefutesANonMinimalSpanningTree) {
  // Build a spanning tree that is deliberately not minimum: take the MSF
  // and swap one tree edge for a strictly heavier cut edge.
  World w = make_gnm_world(16, 60, 11);
  const auto msf = test::mark_msf(w);
  bool swapped = false;
  for (EdgeIdx victim : msf) {
    w.forest->clear_edge(victim);
    const auto side = test::side_of(w, w.g->edge(victim).u);
    std::optional<EdgeIdx> heavier;
    for (EdgeIdx e : w.g->alive_edge_indices()) {
      if (side[w.g->edge(e).u] == side[w.g->edge(e).v]) continue;
      if (w.g->aug_weight(e) > w.g->aug_weight(victim) &&
          (!heavier || w.g->aug_weight(e) < w.g->aug_weight(*heavier))) {
        heavier = e;
      }
    }
    if (heavier) {
      w.forest->mark_edge(*heavier);
      swapped = true;
      break;
    }
    w.forest->mark_edge(victim);  // restore and try the next edge
  }
  ASSERT_TRUE(swapped);
  const VerifyMstResult res =
      verify_mst(*w.net, *w.forest, /*samples=*/0);  // check all edges
  EXPECT_TRUE(res.spanning.spanning_forest());
  EXPECT_GT(res.violations, 0u);
  EXPECT_FALSE(res.looks_like_mst());
}

TEST(VerifyMst, AuditsAFreshDistributedBuild) {
  World w = make_gnm_world(48, 400, 12);
  build_mst(*w.net, *w.forest);
  const VerifyMstResult res = verify_mst(*w.net, *w.forest, 8);
  EXPECT_TRUE(res.looks_like_mst());
}

// Sampling an edge unmarks and re-marks it. The re-mark must keep the
// epoch build_mst placed (phases mark from epoch 1 on), or a later phased
// operation reads a different max_mark_epoch after a mere audit.
TEST(VerifyMst, KeepsTheMarkEpochsItSamples) {
  World w = make_gnm_world(48, 400, 14);
  build_mst(*w.net, *w.forest);
  const std::vector<EdgeIdx> tree = w.forest->marked_edges();
  std::vector<std::uint32_t> epochs;
  for (EdgeIdx e : tree) epochs.push_back(w.forest->mark_epoch(e));
  const std::uint32_t max_epoch = w.forest->max_mark_epoch();
  ASSERT_GE(max_epoch, 1u);

  const VerifyMstResult res = verify_mst(*w.net, *w.forest, /*samples=*/0);
  EXPECT_TRUE(res.looks_like_mst());
  EXPECT_EQ(res.edges_checked, tree.size());
  ASSERT_EQ(w.forest->marked_edges(), tree);
  for (std::size_t i = 0; i < tree.size(); ++i) {
    EXPECT_EQ(w.forest->mark_epoch(tree[i]), epochs[i]) << "edge " << tree[i];
  }
  EXPECT_EQ(w.forest->max_mark_epoch(), max_epoch);
}

TEST(Metrics, PerTagBreakdownSumsToTotal) {
  World w = make_gnm_world(32, 150, 13);
  build_mst(*w.net, *w.forest);
  const auto& m = w.net->metrics();
  std::uint64_t sum = 0;
  for (std::uint64_t c : m.per_tag) sum += c;
  EXPECT_EQ(sum, m.messages);
  EXPECT_GT(m.tag_count(sim::Tag::kBroadcast), 0u);
  EXPECT_GT(m.tag_count(sim::Tag::kEcho), 0u);
  EXPECT_GT(m.tag_count(sim::Tag::kElectEcho), 0u);
  EXPECT_GT(m.tag_count(sim::Tag::kAddEdge), 0u);
  EXPECT_EQ(m.tag_count(sim::Tag::kGhsTest), 0u);
}

TEST(Metrics, TagNamesAreDistinctAndPrintable) {
  for (int t = 0; t < static_cast<int>(sim::Tag::kTagCount); ++t) {
    const char* name = sim::tag_name(static_cast<sim::Tag>(t));
    EXPECT_NE(name, nullptr);
    EXPECT_STRNE(name, "?");
  }
}

}  // namespace
}  // namespace kkt::core
