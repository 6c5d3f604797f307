#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "core/build_mst.h"
#include "graph/dsu.h"
#include "graph/forest.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/implicit.h"
#include "graph/mst_oracle.h"
#include "graph/store.h"
#include "scenario/scenario.h"
#include "test_util.h"
#include "util/rng.h"

namespace kkt::graph {
namespace {

TEST(Types, EdgeNumConcatenatesSmallestFirst) {
  const EdgeNum e = make_edge_num(5, 3);
  EXPECT_EQ(edge_num_small_id(e), 3u);
  EXPECT_EQ(edge_num_large_id(e), 5u);
  EXPECT_EQ(e, make_edge_num(3, 5));
  EXPECT_LT(e, util::u128{1} << kMaxEdgeNumBits);
}

TEST(Types, AugWeightRoundTrip) {
  const EdgeNum en = make_edge_num(kMaxExtId, kMaxExtId - 1);
  const AugWeight aw = make_aug_weight(12345, en);
  EXPECT_EQ(aug_weight_raw(aw), 12345u);
  EXPECT_EQ(aug_weight_edge_num(aw), en);
}

TEST(Types, AugWeightOrdersByRawWeightFirst) {
  const EdgeNum big = make_edge_num(kMaxExtId, kMaxExtId - 1);
  const EdgeNum small = make_edge_num(1, 2);
  EXPECT_LT(make_aug_weight(1, big), make_aug_weight(2, small));
  EXPECT_LT(make_aug_weight(7, small), make_aug_weight(7, big));
}

TEST(Graph, AddRemoveEdges) {
  util::Rng rng(1);
  Graph g(4, rng);
  const EdgeIdx e01 = g.add_edge(0, 1, 10);
  const EdgeIdx e12 = g.add_edge(1, 2, 20);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_EQ(g.degree(1), 2u);
  EXPECT_TRUE(g.find_edge(0, 1).has_value());
  EXPECT_TRUE(g.find_edge(1, 0).has_value());
  EXPECT_FALSE(g.find_edge(0, 2).has_value());

  g.remove_edge(e01);
  EXPECT_EQ(g.edge_count(), 1u);
  EXPECT_FALSE(g.alive(e01));
  EXPECT_TRUE(g.alive(e12));
  EXPECT_EQ(g.degree(0), 0u);
  EXPECT_EQ(g.degree(1), 1u);
  EXPECT_FALSE(g.find_edge(0, 1).has_value());

  // Re-insertion gets a fresh slot; the old index stays dead.
  const EdgeIdx e01b = g.add_edge(0, 1, 30);
  EXPECT_NE(e01b, e01);
  EXPECT_EQ(g.edge_count(), 2u);
}

TEST(Graph, ExternalIdsDistinctAndMapped) {
  util::Rng rng(2);
  Graph g(100, rng);
  std::set<ExtId> ids;
  for (NodeId v = 0; v < 100; ++v) {
    const ExtId id = g.ext_id(v);
    EXPECT_GE(id, 1u);
    EXPECT_LE(id, kMaxExtId);
    EXPECT_TRUE(ids.insert(id).second);
  }
}

TEST(Graph, AugWeightsUniqueEvenWithEqualRawWeights) {
  util::Rng rng(3);
  Graph g(10, rng);
  for (NodeId u = 0; u < 10; ++u) {
    for (NodeId v = u + 1; v < 10; ++v) g.add_edge(u, v, 7);
  }
  std::set<AugWeight> seen;
  for (EdgeIdx e : g.alive_edge_indices()) {
    EXPECT_TRUE(seen.insert(g.aug_weight(e)).second);
  }
}

TEST(Graph, SetWeight) {
  util::Rng rng(4);
  Graph g(2, rng);
  const EdgeIdx e = g.add_edge(0, 1, 5);
  g.set_weight(e, 9);
  EXPECT_EQ(g.edge(e).weight, 9u);
  EXPECT_EQ(aug_weight_raw(g.aug_weight(e), g.edge_num_bits()), 9u);
  EXPECT_EQ(g.max_weight(), 9u);
}

// The sorted-row cache is re-sorted after every mutation touching a row:
// after each add_edge, remove_edge and set_weight, both endpoints' sorted
// rows equal their incident edges' aug weights, sorted.
TEST(Graph, SortedRowsFollowMutation) {
  util::Rng rng(5);
  Graph g(8, rng);
  const auto expect_row = [&g](NodeId v) {
    std::vector<AugWeight> want;
    for (const Incidence& inc : g.incident(v)) {
      want.push_back(g.aug_weight(inc.edge));
    }
    std::sort(want.begin(), want.end());
    const std::span<const AugWeight> got = g.sorted_incident(v);
    EXPECT_EQ(std::vector<AugWeight>(got.begin(), got.end()), want)
        << "v=" << v;
  };
  const auto expect_edge = [&](EdgeIdx e) {
    expect_row(g.edge(e).u);
    expect_row(g.edge(e).v);
  };
  // Read every row first so each mutation below has a cache to invalidate.
  for (NodeId v = 0; v < 8; ++v) expect_row(v);
  std::vector<EdgeIdx> es;
  for (NodeId v = 1; v < 8; ++v) {
    es.push_back(g.add_edge(0, v, 10 * v));
    expect_edge(es.back());
    es.push_back(g.add_edge(v, (v % 7) + 1, 5));
    expect_edge(es.back());
  }
  for (std::size_t i = 0; i < es.size(); i += 3) {
    g.set_weight(es[i], 1000 - i);
    expect_edge(es[i]);
  }
  for (std::size_t i = 1; i < es.size(); i += 2) {
    const Edge ed = g.edge(es[i]);
    g.remove_edge(es[i]);
    expect_row(ed.u);
    expect_row(ed.v);
  }
  for (NodeId v = 0; v < 8; ++v) expect_row(v);
}

// sorted_incident_from / sorted_incident_range of every node of g against
// std::lower_bound / std::upper_bound over the row rebuilt from
// incident(v). The row is rebuilt without touching the sorted cache, so a
// stale row is first read through the window call under test. Starts: 0,
// below the first entry, on an entry, just past one, past the last entry;
// ends: each of those too, so hi < lo is covered.
void expect_windows_match_std_bounds(const Graph& g, util::Rng& rng) {
  for (NodeId v = 0; v < g.node_count(); ++v) {
    std::vector<AugWeight> row;
    for (const Incidence& inc : g.incident(v)) {
      row.push_back(g.aug_weight(inc.edge));
    }
    std::sort(row.begin(), row.end());
    std::vector<AugWeight> bounds{0};
    if (!row.empty()) {
      const AugWeight mid = row[rng.below(row.size())];
      bounds.insert(bounds.end(), {row.front() - 1, row.front(), mid, mid + 1,
                                   row.back(), row.back() + 1});
    }
    for (const AugWeight lo : bounds) {
      const auto first = std::lower_bound(row.begin(), row.end(), lo);
      const std::span<const AugWeight> from =
          g.sorted_incident_from(v, lo, ~AugWeight{0});
      EXPECT_EQ(std::vector<AugWeight>(from.begin(), from.end()),
                std::vector<AugWeight>(first, row.end()))
          << "v=" << v << " lo=" << static_cast<std::uint64_t>(lo);
      for (const AugWeight hi : bounds) {
        const auto last =
            std::max(first, std::upper_bound(row.begin(), row.end(), hi));
        const std::span<const AugWeight> got =
            g.sorted_incident_range(v, lo, hi);
        EXPECT_EQ(std::vector<AugWeight>(got.begin(), got.end()),
                  std::vector<AugWeight>(first, last))
            << "v=" << v << " lo=" << static_cast<std::uint64_t>(lo)
            << " hi=" << static_cast<std::uint64_t>(hi);
      }
    }
  }
}

// The row windows FindMin, HP-TestOut and FindAny walk, on the adjacency
// and frozen backends, before and after mutations leave rows stale. Node
// 0 stays isolated: its row is empty.
TEST(Graph, RowWindowsMatchStdBounds) {
  util::Rng rng(27);
  Graph g(40, rng);
  for (int i = 0; i < 300; ++i) {
    const auto u = static_cast<NodeId>(1 + rng.below(39));
    const auto v = static_cast<NodeId>(1 + rng.below(39));
    if (u != v && !g.find_edge(u, v)) g.add_edge(u, v, rng.below(1u << 16));
  }
  ASSERT_EQ(g.degree(0), 0u);
  expect_windows_match_std_bounds(g, rng);

  const std::string path = test::temp_store_path("windows");
  std::string error;
  ASSERT_TRUE(pack_store(path, g, &error)) << error;
  auto store = FrozenStore::open(path, &error);
  ASSERT_NE(store, nullptr) << error;
  std::remove(path.c_str());  // the mapping outlives the directory entry
  const Graph frozen = Graph::from_store(std::move(store));
  ASSERT_EQ(frozen.backend(), Graph::Backend::kFrozen);
  expect_windows_match_std_bounds(frozen, rng);
  expect_windows_match_std_bounds(igridlong(64, 2, 1), rng);

  // Stale rows: every mutation kind, each followed by a fresh check.
  const std::vector<EdgeIdx> alive = g.alive_edge_indices();
  for (std::size_t i = 0; i < 12; ++i) {
    const EdgeIdx e = alive[rng.below(alive.size())];
    if (!g.alive(e)) continue;
    switch (i % 3) {
      case 0:
        g.set_weight(e, rng.below(1u << 16));
        break;
      case 1:
        g.remove_edge(e);
        break;
      default: {
        const Edge ed = g.edge(e);
        g.remove_edge(e);
        g.add_edge(ed.v, ed.u, rng.below(1u << 16));
        break;
      }
    }
    expect_windows_match_std_bounds(g, rng);
  }
}

sim::Metrics build_mst_cost(const Graph& g) {
  MarkedForest forest(g);
  const auto net = scenario::make_network(g, scenario::NetSpec::sync(), 5);
  core::build_mst(*net, forest);
  return net->metrics();
}

// clone() copies every backend into adjacency verbatim: the edge table by
// index (dead slots included) and every row in order, so a whole BuildMST
// run on the copy is bit-identical.
TEST(Graph, CloneOfEveryBackendIsVerbatim) {
  util::Rng rng(21);
  Graph gnm = random_connected_gnm(40, 150, {1u << 12}, rng);
  for (const EdgeIdx e : {EdgeIdx{3}, EdgeIdx{50}, EdgeIdx{77}}) {
    gnm.remove_edge(e);
  }
  const std::string path = test::temp_store_path("clone");
  std::string error;
  ASSERT_TRUE(pack_store(path, gnm, &error)) << error;
  auto store = FrozenStore::open(path, &error);
  ASSERT_NE(store, nullptr) << error;
  std::remove(path.c_str());  // the mapping outlives the directory entry

  std::vector<Graph> graphs;
  graphs.push_back(make_implicit_graph({24, 1}));
  graphs.push_back(igridlong(64, 2, 1));
  graphs.push_back(igeo(64, 8.0, 1));
  graphs.push_back(Graph::from_store(std::move(store)));
  graphs.push_back(std::move(gnm));
  for (const Graph& g : graphs) {
    const Graph c = g.clone();
    const int b = static_cast<int>(g.backend());
    EXPECT_EQ(c.backend(), Graph::Backend::kAdjacency);
    ASSERT_EQ(c.edge_slots(), g.edge_slots()) << "backend " << b;
    EXPECT_EQ(c.edge_count(), g.edge_count()) << "backend " << b;
    for (EdgeIdx e = 0; e < g.edge_slots(); ++e) {
      const Edge x = g.edge(e), y = c.edge(e);
      EXPECT_TRUE(x.u == y.u && x.v == y.v && x.weight == y.weight &&
                  x.alive == y.alive)
          << "backend " << b << " e=" << e;
    }
    for (NodeId v = 0; v < g.node_count(); ++v) {
      const std::span<const Incidence> row = g.incident(v);
      const std::span<const Incidence> crow = c.incident(v);
      ASSERT_EQ(row.size(), crow.size()) << "backend " << b << " v=" << v;
      for (std::size_t i = 0; i < row.size(); ++i) {
        EXPECT_TRUE(row[i].peer == crow[i].peer && row[i].edge == crow[i].edge)
            << "backend " << b << " v=" << v << " i=" << i;
      }
    }
    EXPECT_EQ(build_mst_cost(g), build_mst_cost(c)) << "backend " << b;
  }
}

TEST(Dsu, UniteAndComponents) {
  Dsu dsu(6);
  EXPECT_EQ(dsu.components(), 6u);
  EXPECT_TRUE(dsu.unite(0, 1));
  EXPECT_TRUE(dsu.unite(2, 3));
  EXPECT_FALSE(dsu.unite(1, 0));
  EXPECT_TRUE(dsu.unite(0, 2));
  EXPECT_EQ(dsu.components(), 3u);
  EXPECT_TRUE(dsu.same(1, 3));
  EXPECT_FALSE(dsu.same(0, 4));
  EXPECT_EQ(dsu.component_size(3), 4u);
}

// --- generators ------------------------------------------------------------

TEST(Generators, GnmHasExactCountsAndIsConnected) {
  util::Rng rng(5);
  for (auto [n, m] : {std::pair<std::size_t, std::size_t>{2, 1},
                      {10, 9},
                      {10, 30},
                      {64, 200},
                      {100, 4950}}) {
    Graph g = random_connected_gnm(n, m, {}, rng);
    EXPECT_EQ(g.node_count(), n);
    EXPECT_EQ(g.edge_count(), m);
    EXPECT_TRUE(is_connected(g));
  }
}

TEST(Generators, TreeIsATree) {
  util::Rng rng(6);
  Graph g = random_tree(50, {}, rng);
  EXPECT_EQ(g.edge_count(), 49u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, SingleNode) {
  util::Rng rng(7);
  Graph g = random_connected_gnm(1, 0, {}, rng);
  EXPECT_EQ(g.node_count(), 1u);
  EXPECT_EQ(g.edge_count(), 0u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, CompleteGraph) {
  util::Rng rng(8);
  Graph g = complete(8, {}, rng);
  EXPECT_EQ(g.edge_count(), 28u);
  for (NodeId v = 0; v < 8; ++v) EXPECT_EQ(g.degree(v), 7u);
}

TEST(Generators, RingDegrees) {
  util::Rng rng(9);
  Graph g = ring(12, {}, rng);
  EXPECT_EQ(g.edge_count(), 12u);
  for (NodeId v = 0; v < 12; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, GridStructure) {
  util::Rng rng(10);
  Graph g = grid(4, 5, {}, rng);
  EXPECT_EQ(g.node_count(), 20u);
  EXPECT_EQ(g.edge_count(), 4 * 4 + 3 * 5u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, Barbell) {
  util::Rng rng(11);
  Graph g = barbell(5, 3, {}, rng);
  EXPECT_EQ(g.node_count(), 2 * 5 + 2u);
  EXPECT_EQ(g.edge_count(), 2 * 10 + 3u);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, PreferentialAttachment) {
  util::Rng rng(12);
  Graph g = preferential_attachment(60, 3, {}, rng);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.edge_count(), 3 + (60 - 4) * 3u);
}

// Unordered-container audit pin: attachment targets used to be collected in
// an unordered_set and iterated in hash-bucket order, so the edge list was
// a property of the stdlib, not of the seed. Targets now dedup in draw
// order; this digest locks the exact edge sequence for seed 12 on every
// platform (and fails loudly if order-sensitivity ever creeps back).
TEST(Generators, PreferentialAttachmentEdgeOrderIsPinned) {
  util::Rng rng(12);
  const Graph g = preferential_attachment(60, 3, {1u << 12}, rng);
  std::uint64_t digest = 1469598103934665603ULL;  // FNV-1a over (u, v, w)
  const auto mix = [&digest](std::uint64_t x) {
    for (int b = 0; b < 64; b += 8) {
      digest ^= (x >> b) & 0xff;
      digest *= 1099511628211ULL;
    }
  };
  for (EdgeIdx e = 0; e < g.edge_count(); ++e) {
    mix(g.edge(e).u);
    mix(g.edge(e).v);
    mix(g.edge(e).weight);
  }
  EXPECT_EQ(digest, 7012765783835588944ULL);
}

TEST(Generators, GnpEdgeCountPlausible) {
  util::Rng rng(13);
  Graph g = gnp(50, 0.3, {}, rng);
  const double expected = 0.3 * 50 * 49 / 2;
  EXPECT_NEAR(static_cast<double>(g.edge_count()), expected, expected * 0.35);
}

TEST(Generators, HierarchicalComplete) {
  util::Rng rng(30);
  Graph g = hierarchical_complete(4, rng);  // n = 16
  EXPECT_EQ(g.node_count(), 16u);
  EXPECT_EQ(g.edge_count(), 120u);
  // Weight bands: crossing a higher-level boundary always costs more.
  const auto weight_of = [&g](NodeId u, NodeId v) {
    return g.edge(*g.find_edge(u, v)).weight;
  };
  EXPECT_LT(weight_of(0, 1), weight_of(0, 2));    // level 1 < level 2
  EXPECT_LT(weight_of(0, 3), weight_of(0, 4));    // level 2 < level 3
  EXPECT_LT(weight_of(0, 7), weight_of(0, 8));    // level 3 < level 4
  EXPECT_LT(weight_of(14, 15), weight_of(0, 15));
}

TEST(Generators, GeometricRadiusOne) {
  util::Rng rng(14);
  Graph g = random_geometric(20, 1.5, {}, rng);  // everything connects
  EXPECT_EQ(g.edge_count(), 190u);
}

// --- oracles -----------------------------------------------------------------

struct OracleCase {
  std::size_t n, m;
  std::uint64_t seed;
};

class MsfOracles : public ::testing::TestWithParam<OracleCase> {};

TEST_P(MsfOracles, KruskalPrimBoruvkaAgree) {
  const auto [n, m, seed] = GetParam();
  util::Rng rng(seed);
  Graph g = random_connected_gnm(n, m, {16}, rng);  // few weights: many ties
  const auto k = kruskal_msf(g);
  const auto p = prim_msf(g);
  const auto b = boruvka_msf(g);
  EXPECT_TRUE(same_edge_set(k, p));
  EXPECT_TRUE(same_edge_set(k, b));
  EXPECT_EQ(k.size(), n - 1);
  EXPECT_TRUE(is_spanning_forest(g, k));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MsfOracles,
    ::testing::Values(OracleCase{2, 1, 1}, OracleCase{5, 10, 2},
                      OracleCase{16, 40, 3}, OracleCase{32, 200, 4},
                      OracleCase{64, 64, 5}, OracleCase{64, 1000, 6},
                      OracleCase{128, 2000, 7}, OracleCase{100, 4950, 8}));

TEST(MsfOracles, DisconnectedGraph) {
  util::Rng rng(15);
  Graph g(6, rng);
  g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 2);
  g.add_edge(3, 4, 3);
  const auto k = kruskal_msf(g);
  EXPECT_EQ(k.size(), 3u);
  EXPECT_TRUE(same_edge_set(k, prim_msf(g)));
  EXPECT_TRUE(same_edge_set(k, boruvka_msf(g)));
  EXPECT_EQ(components(g).second, 3u);  // {0,1,2}, {3,4}, {5}
  EXPECT_FALSE(is_connected(g));
}

TEST(MsfOracles, MinCutEdge) {
  util::Rng rng(16);
  Graph g(4, rng);
  const EdgeIdx a = g.add_edge(0, 1, 5);
  g.add_edge(0, 2, 1);  // inside the side
  const EdgeIdx c = g.add_edge(2, 3, 4);
  std::vector<char> side{1, 0, 1, 0};
  const auto cut = min_cut_edge(g, side);
  ASSERT_TRUE(cut.has_value());
  EXPECT_EQ(*cut, c);
  EXPECT_TRUE(cut_nonempty(g, side));
  g.remove_edge(c);
  g.remove_edge(a);
  EXPECT_FALSE(min_cut_edge(g, side).has_value());
  EXPECT_FALSE(cut_nonempty(g, side));
}

TEST(MsfOracles, PathMaxEdge) {
  util::Rng rng(17);
  Graph g(5, rng);
  const EdgeIdx e01 = g.add_edge(0, 1, 2);
  const EdgeIdx e12 = g.add_edge(1, 2, 9);
  const EdgeIdx e23 = g.add_edge(2, 3, 4);
  const std::vector<EdgeIdx> tree{e01, e12, e23};
  auto res = path_max_edge(g, tree, 0, 3);
  ASSERT_TRUE(res.has_value());
  EXPECT_EQ(*res, e12);
  EXPECT_FALSE(path_max_edge(g, tree, 0, 4).has_value());  // disconnected
  EXPECT_FALSE(path_max_edge(g, tree, 2, 2).has_value());  // trivial
}

// --- marked forest -----------------------------------------------------------

TEST(MarkedForest, HalfMarksAndProperMarking) {
  util::Rng rng(18);
  Graph g(3, rng);
  const EdgeIdx e = g.add_edge(0, 1, 1);
  MarkedForest f(g);
  EXPECT_TRUE(f.properly_marked());
  f.mark_half(e, 0);
  EXPECT_FALSE(f.is_marked(e));
  EXPECT_FALSE(f.properly_marked());
  f.mark_half(e, 1);
  EXPECT_TRUE(f.is_marked(e));
  EXPECT_TRUE(f.properly_marked());
  f.unmark_half(e, 0);
  EXPECT_FALSE(f.is_marked(e));
  EXPECT_TRUE(f.half_marked(e, 1));
}

TEST(MarkedForest, ComponentsAndSpanning) {
  util::Rng rng(19);
  Graph g = random_connected_gnm(30, 80, {}, rng);
  MarkedForest f(g);
  EXPECT_EQ(f.components().second, 30u);
  for (EdgeIdx e : kruskal_msf(g)) f.mark_edge(e);
  EXPECT_EQ(f.components().second, 1u);
  EXPECT_TRUE(f.is_forest());
  EXPECT_TRUE(f.is_spanning_forest());
  EXPECT_EQ(f.component_of(0).size(), 30u);
}

TEST(MarkedForest, DetectsCycle) {
  util::Rng rng(20);
  Graph g = ring(5, {}, rng);
  MarkedForest f(g);
  for (EdgeIdx e : g.alive_edge_indices()) f.mark_edge(e);
  EXPECT_FALSE(f.is_forest());
  EXPECT_FALSE(f.is_spanning_forest());
}

TEST(MarkedForest, DeadEdgeIsNeverMarked) {
  util::Rng rng(21);
  Graph g(2, rng);
  const EdgeIdx e = g.add_edge(0, 1, 1);
  MarkedForest f(g);
  f.mark_edge(e);
  EXPECT_TRUE(f.is_marked(e));
  g.remove_edge(e);
  EXPECT_FALSE(f.is_marked(e));
}

TEST(TreeView, EpochFiltering) {
  util::Rng rng(22);
  Graph g(4, rng);
  const EdgeIdx e1 = g.add_edge(0, 1, 1);
  const EdgeIdx e2 = g.add_edge(1, 2, 2);
  const EdgeIdx e3 = g.add_edge(2, 3, 3);
  MarkedForest f(g);
  f.mark_edge(e1, /*epoch=*/1);
  f.mark_edge(e2, /*epoch=*/2);
  f.mark_edge(e3, /*epoch=*/3);

  const TreeView at2(f, 2);
  EXPECT_TRUE(at2.contains(e1));
  EXPECT_TRUE(at2.contains(e2));
  EXPECT_FALSE(at2.contains(e3));
  EXPECT_EQ(at2.degree(1), 2u);
  EXPECT_EQ(at2.degree(2), 1u);
  EXPECT_EQ(at2.neighbors(2).size(), 1u);

  const TreeView all(f);
  EXPECT_EQ(all.degree(2), 2u);
  EXPECT_TRUE(f.is_marked_at(e1, 1));
  EXPECT_FALSE(f.is_marked_at(e3, 2));
}

TEST(MarkedForest, MarkedIncidentAndDegree) {
  util::Rng rng(23);
  Graph g(3, rng);
  const EdgeIdx e1 = g.add_edge(0, 1, 1);
  g.add_edge(1, 2, 2);
  MarkedForest f(g);
  f.mark_edge(e1);
  EXPECT_EQ(TreeView(f).degree(1), 1u);
  EXPECT_EQ(f.marked_incident(1).size(), 1u);
  EXPECT_EQ(f.marked_incident(1)[0].peer, 0u);
  EXPECT_EQ(f.marked_edges(), std::vector<EdgeIdx>{e1});
}

}  // namespace
}  // namespace kkt::graph
