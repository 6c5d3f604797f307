#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <optional>

#include "graph/generators.h"
#include "proto/broadcast.h"
#include "proto/broadcast_echo.h"
#include "proto/cycle_break.h"
#include "proto/leader_election.h"
#include "proto/tree_ops.h"
#include "test_util.h"

namespace kkt::proto {
namespace {

using graph::EdgeIdx;
using graph::NodeId;
using test::make_gnm_world;
using test::mark_msf;
using test::World;

// Eccentricity of root within the marked tree (BFS hop count).
std::size_t tree_ecc(const World& w, NodeId root) {
  std::vector<int> dist(w.g->node_count(), -1);
  dist[root] = 0;
  std::deque<NodeId> q{root};
  std::size_t ecc = 0;
  while (!q.empty()) {
    const NodeId v = q.front();
    q.pop_front();
    for (const auto& inc : w.forest->marked_incident(v)) {
      if (dist[inc.peer] < 0) {
        dist[inc.peer] = dist[v] + 1;
        ecc = std::max<std::size_t>(ecc, dist[inc.peer]);
        q.push_back(inc.peer);
      }
    }
  }
  return ecc;
}

class BroadcastEchoSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BroadcastEchoSweep, ComputesSumWithExactMessageCount) {
  const auto [n, seed] = GetParam();
  World w = make_gnm_world(n, 2 * n, seed);
  mark_msf(w);
  TreeOps ops(*w.net, graph::TreeView(*w.forest));

  // Sum of external IDs over the tree.
  const LocalFn local = [&w](NodeId self, std::span<const std::uint64_t>) {
    return Words{w.g->ext_id(self)};
  };
  const NodeId root = static_cast<NodeId>(seed % n);
  const Words out = ops.broadcast_echo(root, Words{}, local, combine_sum());

  std::uint64_t expected = 0;
  for (NodeId v = 0; v < w.g->node_count(); ++v) expected += w.g->ext_id(v);
  EXPECT_EQ(out.at(0), expected);
  EXPECT_EQ(w.net->metrics().messages, 2u * (n - 1));
  EXPECT_EQ(w.net->metrics().rounds, 2 * tree_ecc(w, root));
  EXPECT_EQ(w.net->metrics().broadcast_echoes, 1u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BroadcastEchoSweep,
                         ::testing::Combine(::testing::Values(2, 3, 8, 33,
                                                              100),
                                            ::testing::Values(1, 2, 3)));

TEST(BroadcastEcho, SingletonTree) {
  World w = make_gnm_world(1, 0, 1);
  TreeOps ops(*w.net, graph::TreeView(*w.forest));
  const LocalFn local = [](NodeId, std::span<const std::uint64_t>) {
    return Words{7};
  };
  const Words out = ops.broadcast_echo(0, Words{}, local, combine_sum());
  EXPECT_EQ(out.at(0), 7u);
  EXPECT_EQ(w.net->metrics().messages, 0u);
}

TEST(BroadcastEcho, PayloadReachesEveryNode) {
  World w = make_gnm_world(20, 40, 3);
  mark_msf(w);
  TreeOps ops(*w.net, graph::TreeView(*w.forest));
  std::vector<std::uint64_t> seen(w.g->node_count(), 0);
  const LocalFn local = [&seen](NodeId self,
                                std::span<const std::uint64_t> payload) {
    seen[self] = payload[0];
    return Words{1};
  };
  ops.broadcast_echo(5, Words{0xabcd}, local, combine_sum());
  for (std::uint64_t s : seen) EXPECT_EQ(s, 0xabcdu);
}

TEST(BroadcastEcho, CombineSeesConnectingEdge) {
  // Count tree edges by having combine add 1 per child edge. The combine
  // gets no edge argument; the {self, child} edge it can look up is a
  // marked tree edge.
  World w = make_gnm_world(30, 60, 4);
  mark_msf(w);
  TreeOps ops(*w.net, graph::TreeView(*w.forest));
  const LocalFn local = [](NodeId, std::span<const std::uint64_t>) {
    return Words{0};
  };
  const CombineFn combine = [&w](NodeId self, NodeId child, Words& acc,
                                 std::span<const std::uint64_t> child_val) {
    const std::optional<EdgeIdx> e = w.g->find_edge(self, child);
    EXPECT_TRUE(e.has_value() && w.forest->is_marked(*e));
    acc[0] += child_val[0] + 1;
  };
  const Words out = ops.broadcast_echo(0, Words{}, local, combine);
  EXPECT_EQ(out.at(0), 29u);
}

TEST(BroadcastEcho, WorksOnAsyncNetwork) {
  World w = make_gnm_world(40, 100, 5, test::NetKind::kAsync);
  mark_msf(w);
  TreeOps ops(*w.net, graph::TreeView(*w.forest));
  const LocalFn local = [](NodeId, std::span<const std::uint64_t>) {
    return Words{1};
  };
  const Words out = ops.broadcast_echo(3, Words{}, local, combine_sum());
  EXPECT_EQ(out.at(0), 40u);  // every node contributed exactly once
  EXPECT_EQ(w.net->metrics().messages, 2u * 39);
}

TEST(Broadcast, ReachesAllAndCostsTreeSizeMinusOne) {
  World w = make_gnm_world(25, 50, 6);
  mark_msf(w);
  TreeOps ops(*w.net, graph::TreeView(*w.forest));
  int hits = 0;
  ops.broadcast(2, Words{42},
                [&hits](NodeId, std::span<const std::uint64_t> p) {
                  EXPECT_EQ(p[0], 42u);
                  ++hits;
                });
  EXPECT_EQ(hits, 25);
  EXPECT_EQ(w.net->metrics().messages, 24u);
}

TEST(AddEdgeHandshake, MarksBothHalves) {
  World w = make_gnm_world(12, 30, 7);
  const auto msf = mark_msf(w);
  // Take any non-tree edge, unmark-split the tree... simpler: delete a tree
  // edge's marks to create two trees, then add a cut edge back.
  const EdgeIdx split = msf[msf.size() / 2];
  w.forest->clear_edge(split);
  const NodeId root = w.g->edge(split).u;
  const auto side = test::side_of(w, root);
  const auto cut = graph::min_cut_edge(*w.g, side);
  ASSERT_TRUE(cut.has_value());

  TreeOps ops(*w.net, graph::TreeView(*w.forest));
  EXPECT_TRUE(ops.add_edge(*w.forest, root, w.g->edge_num(*cut), 5));
  EXPECT_TRUE(w.forest->is_marked(*cut));
  EXPECT_EQ(w.forest->mark_epoch(*cut), 5u);
  EXPECT_TRUE(w.forest->properly_marked());
  EXPECT_TRUE(w.forest->is_spanning_forest());
}

// --- leader election --------------------------------------------------------

class ElectionSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ElectionSweep, ElectsExactlyOneLeaderKnownToAll) {
  const auto [n, seed] = GetParam();
  World w = make_gnm_world(n, std::min<std::size_t>(2 * n, n * (n - 1) / 2),
                           seed);
  mark_msf(w);
  const graph::TreeView tree(*w.forest);
  ElectScratch scratch;
  LeaderElection el(tree, scratch);
  std::vector<NodeId> all(w.g->node_count());
  for (NodeId v = 0; v < all.size(); ++v) all[v] = v;
  w.net->run(el, all);

  ASSERT_NE(el.leader(), graph::kNoNode);
  const graph::ExtId leader_ext = w.g->ext_id(el.leader());
  for (NodeId v = 0; v < w.g->node_count(); ++v) {
    EXPECT_EQ(el.leader_ext_seen_by(v), leader_ext) << "node " << v;
  }
  // <= 2 messages per node: n-1 or n echoes plus n-1 announcements.
  EXPECT_LE(w.net->metrics().messages, 2u * n);
  EXPECT_TRUE(el.stalled_cycle(all).empty());
}

INSTANTIATE_TEST_SUITE_P(Sizes, ElectionSweep,
                         ::testing::Combine(::testing::Values(1, 2, 3, 4, 10,
                                                              64, 101),
                                            ::testing::Values(1, 2, 3)));

TEST(LeaderElection, PathGraphPicksMedian) {
  // A path of 7 nodes: the elected leader must be the middle node.
  util::Rng rng(8);
  auto g = std::make_unique<graph::Graph>(7, rng);
  std::vector<EdgeIdx> edges;
  for (NodeId v = 0; v + 1 < 7; ++v) edges.push_back(g->add_edge(v, v + 1, 1));
  World w = test::make_world(std::move(g), 8);
  for (EdgeIdx e : edges) w.forest->mark_edge(e);

  ElectScratch scratch;
  LeaderElection el(graph::TreeView(*w.forest), scratch);
  std::vector<NodeId> all{0, 1, 2, 3, 4, 5, 6};
  w.net->run(el, all);
  EXPECT_EQ(el.leader(), 3u);
}

TEST(LeaderElection, EvenPathPicksHigherIdMedian) {
  util::Rng rng(9);
  auto g = std::make_unique<graph::Graph>(6, rng);
  std::vector<EdgeIdx> edges;
  for (NodeId v = 0; v + 1 < 6; ++v) edges.push_back(g->add_edge(v, v + 1, 1));
  const graph::ExtId e2 = g->ext_id(2), e3 = g->ext_id(3);
  World w = test::make_world(std::move(g), 9);
  for (EdgeIdx e : edges) w.forest->mark_edge(e);

  ElectScratch scratch;
  LeaderElection el(graph::TreeView(*w.forest), scratch);
  std::vector<NodeId> all{0, 1, 2, 3, 4, 5};
  w.net->run(el, all);
  EXPECT_EQ(el.leader(), e2 > e3 ? 2u : 3u);
}

TEST(LeaderElection, AsyncStillUnique) {
  World w = make_gnm_world(50, 120, 10, test::NetKind::kAsync);
  mark_msf(w);
  ElectScratch scratch;
  LeaderElection el(graph::TreeView(*w.forest), scratch);
  std::vector<NodeId> all(w.g->node_count());
  for (NodeId v = 0; v < all.size(); ++v) all[v] = v;
  w.net->run(el, all);
  EXPECT_NE(el.leader(), graph::kNoNode);
}

TEST(LeaderElection, DetectsCycleNodes) {
  // Ring of 6 with two pendant nodes; mark all ring edges -> cycle of 6.
  util::Rng rng(11);
  auto g = std::make_unique<graph::Graph>(8, rng);
  std::vector<EdgeIdx> ring_edges;
  for (NodeId v = 0; v < 6; ++v) {
    ring_edges.push_back(g->add_edge(v, (v + 1) % 6, 1));
  }
  const EdgeIdx p1 = g->add_edge(0, 6, 1);
  const EdgeIdx p2 = g->add_edge(3, 7, 1);
  World w = test::make_world(std::move(g), 11);
  for (EdgeIdx e : ring_edges) w.forest->mark_edge(e);
  w.forest->mark_edge(p1);
  w.forest->mark_edge(p2);

  ElectScratch scratch;
  LeaderElection el(graph::TreeView(*w.forest), scratch);
  std::vector<NodeId> all{0, 1, 2, 3, 4, 5, 6, 7};
  w.net->run(el, all);
  EXPECT_EQ(el.leader(), graph::kNoNode);
  const auto cycle = el.stalled_cycle(all);
  ASSERT_EQ(cycle.size(), 6u);
  for (const CycleMember& m : cycle) {
    EXPECT_LT(m.node, 6u);
    EXPECT_EQ((m.node + 1) % 6 == m.cycle_neighbor[0] ||
                  (m.node + 1) % 6 == m.cycle_neighbor[1],
              true);
  }
}

TEST(CycleBreak, EventuallyBreaksCycle) {
  // Run detection + break until the cycle is gone; with fair coins the
  // expected number of rounds is small. Assert it terminates quickly and
  // never unmarks more than half the cycle.
  util::Rng rng(12);
  auto g = std::make_unique<graph::Graph>(8, rng);
  std::vector<EdgeIdx> ring_edges;
  for (NodeId v = 0; v < 8; ++v) {
    ring_edges.push_back(g->add_edge(v, (v + 1) % 8, 1));
  }
  World w = test::make_world(std::move(g), 12);
  for (EdgeIdx e : ring_edges) w.forest->mark_edge(e);
  std::vector<NodeId> all(8);
  for (NodeId v = 0; v < 8; ++v) all[v] = v;

  bool broken = false;
  for (int attempt = 0; attempt < 64 && !broken; ++attempt) {
    ElectScratch scratch;
  LeaderElection el(graph::TreeView(*w.forest), scratch);
    w.net->run(el, all);
    if (el.leader() != graph::kNoNode) {
      broken = true;
      break;
    }
    const auto cycle = el.stalled_cycle(all);
    ASSERT_FALSE(cycle.empty());
    CycleBreak breaker(*w.forest, cycle);
    std::vector<NodeId> members;
    for (const auto& m : cycle) members.push_back(m.node);
    w.net->run(breaker, members);
    if (breaker.half_unmarks() > 0) {
      EXPECT_LE(breaker.half_unmarks(), 8);  // <= half the edges, 2 each
    }
  }
  EXPECT_TRUE(broken);
  EXPECT_TRUE(w.forest->properly_marked());
  EXPECT_TRUE(w.forest->is_forest());
  // The graph is one ring; breaking may only remove edges, so the marked
  // subgraph stays connected unless it was reset wholesale.
  EXPECT_LE(w.forest->components().second, 8u);
}

}  // namespace
}  // namespace kkt::proto
