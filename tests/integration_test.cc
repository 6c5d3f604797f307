// End-to-end and stress scenarios: long asynchronous churn, build-then-
// repair lifecycles, the self-audit in the loop, and coarse message-bound
// envelopes that would catch accounting regressions.
#include <gtest/gtest.h>

#include <cmath>

#include "baseline/flood_st.h"
#include "core/build_mst.h"
#include "core/find_min.h"
#include "core/repair.h"
#include "core/verify.h"
#include "graph/mst_oracle.h"
#include "proto/tree_ops.h"
#include "test_util.h"

namespace kkt::core {
namespace {

using graph::EdgeIdx;
using graph::NodeId;
using graph::Weight;
using test::World;

TEST(Lifecycle, BuildChurnAuditRebuild) {
  // Build distributed, churn 40 updates, audit distributed, tear down,
  // rebuild distributed on the mutated topology.
  World w = test::make_gnm_world(40, 240, 1);
  ASSERT_TRUE(build_mst(*w.net, *w.forest).spanning);

  DynamicForest dyn(*w.g, *w.forest, *w.net, ForestKind::kMst);
  util::Rng rng(2);
  for (int i = 0; i < 40; ++i) {
    const int op = static_cast<int>(rng.below(3));
    if (op == 0 && w.g->edge_count() > 60) {
      const auto alive = w.g->alive_edge_indices();
      dyn.delete_edge(alive[rng.below(alive.size())]);
    } else if (op == 1) {
      const auto u = static_cast<NodeId>(rng.below(40));
      const auto v = static_cast<NodeId>(rng.below(40));
      if (u != v && !w.g->find_edge(u, v)) {
        dyn.insert_edge(u, v, static_cast<Weight>(1 + rng.below(1u << 18)));
      }
    } else {
      const auto alive = w.g->alive_edge_indices();
      dyn.change_weight(alive[rng.below(alive.size())],
                        static_cast<Weight>(1 + rng.below(1u << 18)));
    }
  }
  EXPECT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                   graph::kruskal_msf(*w.g)));
  EXPECT_TRUE(verify_mst(*w.net, *w.forest, 5).looks_like_mst());

  // Rebuild from scratch on the mutated graph.
  w.forest->clear_all();
  ASSERT_TRUE(build_mst(*w.net, *w.forest).spanning);
  EXPECT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                   graph::kruskal_msf(*w.g)));
}

class LongChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LongChurn, TwoHundredAsyncUpdatesStayExact) {
  const std::uint64_t seed = GetParam();
  World w = test::make_gnm_world(30, 120, seed, test::NetKind::kAsync);
  test::mark_msf(w);
  DynamicForest dyn(*w.g, *w.forest, *w.net, ForestKind::kMst);
  util::Rng rng(seed * 37);
  int structural_ops = 0;
  for (int i = 0; i < 200; ++i) {
    const int op = static_cast<int>(rng.below(4));
    RepairOutcome out;
    if (op == 0 && w.g->edge_count() > 35) {
      const auto alive = w.g->alive_edge_indices();
      out = dyn.delete_edge(alive[rng.below(alive.size())]);
    } else if (op <= 2) {
      const auto u = static_cast<NodeId>(rng.below(30));
      const auto v = static_cast<NodeId>(rng.below(30));
      if (u == v || w.g->find_edge(u, v)) continue;
      out = dyn.insert_edge(u, v, static_cast<Weight>(1 + rng.below(255)));
    } else {
      const auto alive = w.g->alive_edge_indices();
      out = dyn.change_weight(alive[rng.below(alive.size())],
                              static_cast<Weight>(1 + rng.below(255)));
    }
    ASSERT_NE(out.action, RepairAction::kSearchFailed) << "step " << i;
    if (out.action != RepairAction::kNone) ++structural_ops;
    // Exactness after *every* update (the oracle recomputes from scratch).
    ASSERT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                     graph::kruskal_msf(*w.g)))
        << "step " << i;
  }
  EXPECT_GT(structural_ops, 20);
  EXPECT_EQ(w.net->metrics().oversized_messages, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LongChurn, ::testing::Values(1, 2, 3, 4));

TEST(Lifecycle, StChurnWithDisconnections) {
  // ST maintenance on a sparse graph that repeatedly disconnects and
  // reconnects: bridges must be recognized and later re-merged.
  util::Rng rng(9);
  auto g = std::make_unique<graph::Graph>(
      graph::random_connected_gnm(24, 28, {16}, rng));
  World w = test::make_world(std::move(g), 9, test::NetKind::kAsync);
  test::mark_msf(w);
  DynamicForest dyn(*w.g, *w.forest, *w.net, ForestKind::kSt);
  util::Rng pick(10);
  int bridges = 0, merges = 0;
  for (int i = 0; i < 120; ++i) {
    if (pick.coin() && w.g->edge_count() > 12) {
      const auto alive = w.g->alive_edge_indices();
      const auto out = dyn.delete_edge(alive[pick.below(alive.size())]);
      bridges += out.action == RepairAction::kBridge;
    } else {
      const auto u = static_cast<NodeId>(pick.below(24));
      const auto v = static_cast<NodeId>(pick.below(24));
      if (u == v || w.g->find_edge(u, v)) continue;
      const auto out = dyn.insert_edge(u, v, 1);
      merges += out.action == RepairAction::kMergedTrees;
    }
    ASSERT_TRUE(w.forest->properly_marked()) << "step " << i;
    ASSERT_TRUE(w.forest->is_spanning_forest()) << "step " << i;
  }
  // On a graph this sparse both paths must have fired.
  EXPECT_GT(bridges, 0);
  EXPECT_GT(merges, 0);
}

TEST(MessageEnvelopes, ConstructionWithinPolylogEnvelope) {
  // Coarse regression guard: messages <= C * n lg^2 n / lg lg n with the
  // empirically calibrated C = 12 (actual ~7-10 across families).
  for (std::size_t n : {64u, 128u, 256u}) {
    World w = test::make_gnm_world(n, n * (n - 1) / 2, 11);
    ASSERT_TRUE(build_mst(*w.net, *w.forest).spanning);
    const double lg = std::log2(double(n));
    EXPECT_LT(double(w.net->metrics().messages),
              12.0 * double(n) * lg * lg / std::log2(lg))
        << "n=" << n;
  }
}

TEST(MessageEnvelopes, StConstructionWithinNLogNEnvelope) {
  for (std::size_t n : {64u, 128u, 256u}) {
    World w = test::make_gnm_world(n, n * (n - 1) / 2, 12);
    ASSERT_TRUE(build_st(*w.net, *w.forest).spanning);
    const double lg = std::log2(double(n));
    EXPECT_LT(double(w.net->metrics().messages), 40.0 * double(n) * lg)
        << "n=" << n;
  }
}

TEST(MessageEnvelopes, RepairEnvelope) {
  // A single MST deletion repair on a dense graph: within C * n lg n /
  // lg lg n messages (Theorem 1.2's bound; C = 25 calibrated from the
  // ~21-29 broadcast-and-echoes/2n-messages-each FindMin costs of E10,
  // growth per doubling matches the bound's ~2.2x).
  for (std::size_t n : {64u, 128u, 256u}) {
    World w = test::make_gnm_world(n, n * (n - 1) / 2, 13,
                                   test::NetKind::kAsync);
    test::mark_msf(w);
    DynamicForest dyn(*w.g, *w.forest, *w.net, ForestKind::kMst);
    const auto tree = w.forest->marked_edges();
    const auto out = dyn.delete_edge(tree[tree.size() / 2]);
    ASSERT_EQ(out.action, RepairAction::kReplaced);
    const double lg = std::log2(double(n));
    EXPECT_LT(double(out.messages),
              25.0 * double(n) * lg / std::log2(lg))
        << "n=" << n;
  }
}

TEST(MessageEnvelopes, InsertIsLinearWorstCase) {
  for (std::size_t n : {64u, 256u}) {
    World w = test::make_gnm_world(n, 4 * n, 14, test::NetKind::kAsync);
    test::mark_msf(w);
    DynamicForest dyn(*w.g, *w.forest, *w.net, ForestKind::kMst);
    // Find a missing pair.
    util::Rng pick(14);
    NodeId u = 0, v = 0;
    do {
      u = static_cast<NodeId>(pick.below(n));
      v = static_cast<NodeId>(pick.below(n));
    } while (u == v || w.g->find_edge(u, v).has_value());
    const auto out = dyn.insert_edge(u, v, 5);
    EXPECT_LE(out.messages, 4 * n) << "n=" << n;
  }
}

// --- schedule diversity ------------------------------------------------
// The core algorithms must stay exact under every delivery schedule: the
// synchronous global clock, benign random asynchrony, and the adversarial
// policy's per-edge-bounded, reordered schedules. One parameterized suite,
// three transports.
class ScheduleDiversity : public ::testing::TestWithParam<test::NetKind> {};

TEST_P(ScheduleDiversity, BuildMstIsExact) {
  World w = test::make_gnm_world(40, 200, 31, GetParam());
  ASSERT_TRUE(build_mst(*w.net, *w.forest).spanning);
  EXPECT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                   graph::kruskal_msf(*w.g)));
  EXPECT_EQ(w.net->metrics().oversized_messages, 0u);
}

TEST_P(ScheduleDiversity, FindMinReturnsTheLightestCutEdge) {
  World w = test::make_gnm_world(32, 160, 32, GetParam());
  test::mark_msf(w);
  const auto tree = w.forest->marked_edges();
  const graph::EdgeIdx split = tree[tree.size() / 2];
  w.forest->clear_edge(split);
  const NodeId root = w.g->edge(split).u;

  // Oracle: the lightest alive edge crossing the cut (the cleared tree
  // edge itself is one of the candidates).
  const auto side = test::side_of(w, root);
  graph::AugWeight best_aug = 0;
  graph::EdgeNum best_num = 0;
  bool any = false;
  for (graph::EdgeIdx e : w.g->alive_edge_indices()) {
    const auto& ed = w.g->edge(e);
    if (side[ed.u] == side[ed.v]) continue;
    const graph::AugWeight aug = w.g->aug_weight(e);
    if (!any || aug < best_aug) {
      any = true;
      best_aug = aug;
      best_num = w.g->edge_num(e);
    }
  }
  ASSERT_TRUE(any);

  proto::TreeOps ops(*w.net, graph::TreeView(*w.forest));
  const FindMinResult res = find_min(ops, root);
  ASSERT_TRUE(res.found);
  EXPECT_EQ(res.edge_num, best_num);
}

TEST_P(ScheduleDiversity, RepairChurnStaysExact) {
  World w = test::make_gnm_world(28, 110, 33, GetParam());
  test::mark_msf(w);
  DynamicForest dyn(*w.g, *w.forest, *w.net, ForestKind::kMst);
  util::Rng rng(77);
  for (int i = 0; i < 60; ++i) {
    const int op = static_cast<int>(rng.below(3));
    RepairOutcome out;
    if (op == 0 && w.g->edge_count() > 32) {
      const auto alive = w.g->alive_edge_indices();
      out = dyn.delete_edge(alive[rng.below(alive.size())]);
    } else if (op == 1) {
      const auto u = static_cast<NodeId>(rng.below(28));
      const auto v = static_cast<NodeId>(rng.below(28));
      if (u == v || w.g->find_edge(u, v)) continue;
      out = dyn.insert_edge(u, v, static_cast<Weight>(1 + rng.below(511)));
    } else {
      const auto alive = w.g->alive_edge_indices();
      out = dyn.change_weight(alive[rng.below(alive.size())],
                              static_cast<Weight>(1 + rng.below(511)));
    }
    ASSERT_NE(out.action, RepairAction::kSearchFailed) << "step " << i;
    ASSERT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                     graph::kruskal_msf(*w.g)))
        << "step " << i;
  }
  EXPECT_EQ(w.net->metrics().oversized_messages, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, ScheduleDiversity,
    ::testing::Values(test::NetKind::kSync, test::NetKind::kAsync,
                      test::NetKind::kAdversarial),
    [](const ::testing::TestParamInfo<test::NetKind>& info) {
      return std::string(scenario::net_kind_name(info.param));
    });

TEST(Lifecycle, MixedMstAndStOnTheSameGraph) {
  // Two maintained structures can coexist on separate forests/networks
  // over one topology (e.g. an MST for routing costs, an ST for broadcast).
  World w = test::make_gnm_world(32, 160, 15);
  graph::MarkedForest st_forest(*w.g);
  sim::Network st_net(*w.g, 16, sim::DeliveryPolicy::sync());
  ASSERT_TRUE(build_mst(*w.net, *w.forest).spanning);
  ASSERT_TRUE(build_st(st_net, st_forest).spanning);
  EXPECT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                   graph::kruskal_msf(*w.g)));
  EXPECT_TRUE(st_forest.is_spanning_forest());
}

}  // namespace
}  // namespace kkt::core
