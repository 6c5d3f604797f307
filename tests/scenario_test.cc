// The scenario descriptor library: graph families, network kinds, the
// run_scenario/run_sweep entry points, and the seed discipline.
#include <gtest/gtest.h>

#include "core/build_mst.h"
#include "graph/mst_oracle.h"
#include "scenario/scenario.h"
#include "test_util.h"

namespace kkt::scenario {
namespace {

TEST(ScenarioNames, FamilyNamesRoundTrip) {
  for (const GraphFamily f :
       {GraphFamily::kGnm, GraphFamily::kGnp, GraphFamily::kComplete,
        GraphFamily::kRing, GraphFamily::kGrid, GraphFamily::kBarbell,
        GraphFamily::kGeometric, GraphFamily::kPreferential,
        GraphFamily::kRandomTree, GraphFamily::kHierarchical}) {
    const auto back = family_from_name(family_name(f));
    ASSERT_TRUE(back.has_value()) << family_name(f);
    EXPECT_EQ(*back, f);
  }
  EXPECT_FALSE(family_from_name("nope").has_value());
}

TEST(ScenarioNames, NetKindNamesRoundTrip) {
  for (const NetKind k :
       {NetKind::kSync, NetKind::kAsync, NetKind::kAdversarial}) {
    const auto back = net_kind_from_name(net_kind_name(k));
    ASSERT_TRUE(back.has_value()) << net_kind_name(k);
    EXPECT_EQ(*back, k);
  }
  EXPECT_FALSE(net_kind_from_name("nope").has_value());
}

TEST(BuildGraph, FamiliesProduceExpectedShapes) {
  {
    const graph::Graph g = build_graph(GraphSpec::gnm(32, 64), 1);
    EXPECT_EQ(g.node_count(), 32u);
    EXPECT_EQ(g.edge_count(), 64u);
  }
  {
    const graph::Graph g = build_graph(GraphSpec::complete(10), 1);
    EXPECT_EQ(g.node_count(), 10u);
    EXPECT_EQ(g.edge_count(), 45u);
  }
  {
    GraphSpec ring;
    ring.family = GraphFamily::kRing;
    ring.n = 12;
    const graph::Graph g = build_graph(ring, 1);
    EXPECT_EQ(g.node_count(), 12u);
    EXPECT_EQ(g.edge_count(), 12u);
  }
  {
    const graph::Graph g = build_graph(GraphSpec::hierarchical(4), 1);
    EXPECT_EQ(g.node_count(), 16u);  // n = 2^levels
  }
  {
    GraphSpec clamped = GraphSpec::gnm(8, 1000);
    clamped.clamp_m = true;
    const graph::Graph g = build_graph(clamped, 1);
    EXPECT_EQ(g.edge_count(), 8u * 7u / 2u);
  }
}

TEST(GraphSpecError, RejectsSizesTheGeneratorsOnlyAssert) {
  GraphSpec ring;
  ring.family = GraphFamily::kRing;
  ring.n = 2;
  EXPECT_TRUE(graph_spec_error(ring).has_value());
  ring.n = 3;
  EXPECT_FALSE(graph_spec_error(ring).has_value());

  EXPECT_TRUE(graph_spec_error(GraphSpec::gnm(8, 6)).has_value());   // m < n-1
  EXPECT_TRUE(graph_spec_error(GraphSpec::gnm(8, 29)).has_value());  // > K_8
  EXPECT_FALSE(graph_spec_error(GraphSpec::gnm(8, 28)).has_value());
  GraphSpec clamped = GraphSpec::gnm(8, 1000);
  clamped.clamp_m = true;
  EXPECT_FALSE(graph_spec_error(clamped).has_value());

  EXPECT_TRUE(graph_spec_error(GraphSpec::hierarchical(13)).has_value());
  EXPECT_TRUE(graph_spec_error(GraphSpec::hierarchical(0)).has_value());
  EXPECT_TRUE(graph_spec_error(GraphSpec::igridlong(3)).has_value());
  EXPECT_FALSE(graph_spec_error(GraphSpec::igridlong(4)).has_value());
  EXPECT_FALSE(graph_spec_error(GraphSpec::igridlong(64, 64)).has_value());
  EXPECT_TRUE(graph_spec_error(GraphSpec::igridlong(64, 65)).has_value());
  EXPECT_TRUE(graph_spec_error(GraphSpec::icomplete(1)).has_value());
}

TEST(BuildGraph, DeterministicGivenSeed) {
  const graph::Graph a = build_graph(GraphSpec::gnm(24, 60), 9);
  const graph::Graph b = build_graph(GraphSpec::gnm(24, 60), 9);
  ASSERT_EQ(a.edge_count(), b.edge_count());
  for (graph::EdgeIdx e = 0; e < a.edge_count(); ++e) {
    EXPECT_EQ(a.edge(e).u, b.edge(e).u);
    EXPECT_EQ(a.edge(e).v, b.edge(e).v);
    EXPECT_EQ(a.edge(e).weight, b.edge(e).weight);
  }
}

TEST(MakeWorld, NetKindSelectsTheTransport) {
  for (const NetKind k :
       {NetKind::kSync, NetKind::kAsync, NetKind::kAdversarial}) {
    Scenario sc;
    sc.graph = GraphSpec::gnm(16, 30);
    sc.net.kind = k;
    World w = make_world(sc);
    ASSERT_NE(w.net, nullptr);
    EXPECT_EQ(w.g->node_count(), 16u);
    EXPECT_EQ(w.forest->marked_edges().size(), 0u);
  }
}

TEST(MakeWorld, PremarkMsfStartsFromTheOracleTree) {
  Scenario sc;
  sc.graph = GraphSpec::gnm(20, 50);
  sc.premark_msf = true;
  World w = make_world(sc);
  EXPECT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                   graph::kruskal_msf(*w.g)));
}

TEST(RunScenario, ReturnsTheModelCosts) {
  Scenario sc;
  sc.graph = GraphSpec::gnm(24, 96);
  sc.seed = 3;
  bool spanning = false;
  const sim::Metrics m = run_scenario(sc, [&](World& w) {
    spanning = core::build_mst(w.network(), w.trees()).spanning;
  });
  EXPECT_TRUE(spanning);
  EXPECT_GT(m.messages, 0u);
  EXPECT_GT(m.rounds, 0u);
  EXPECT_EQ(m.oversized_messages, 0u);
}

TEST(RunScenario, DeterministicGivenTheDescriptor) {
  Scenario sc;
  sc.graph = GraphSpec::gnm(24, 96);
  sc.net.kind = NetKind::kAdversarial;
  sc.seed = 4;
  const auto body = [](World& w) { core::build_mst(w.network(), w.trees()); };
  const sim::Metrics a = run_scenario(sc, body);
  const sim::Metrics b = run_scenario(sc, body);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.message_bits, b.message_bits);
}

TEST(RunSweep, OneResultPerSeedAllExact) {
  Scenario sc;
  sc.graph = GraphSpec::gnm(20, 60);
  sc.net.kind = NetKind::kAsync;
  int exact = 0;
  const auto results = run_sweep(sc, 100, 4, [&](World& w) {
    if (core::build_mst(w.network(), w.trees()).spanning &&
        graph::same_edge_set(w.trees().marked_edges(),
                             graph::kruskal_msf(w.graph()))) {
      ++exact;
    }
  });
  ASSERT_EQ(results.size(), 4u);
  EXPECT_EQ(exact, 4);
  // Different seeds give different worlds/schedules; costs should differ
  // somewhere across the sweep.
  bool any_diff = false;
  for (std::size_t i = 1; i < results.size(); ++i) {
    if (results[i].messages != results[0].messages) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
}

}  // namespace
}  // namespace kkt::scenario
