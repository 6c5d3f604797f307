// Backend-equivalence pins: the storage backend behind the Graph read API
// must be invisible to every protocol. The implicit families materialise
// exactly (materialize_implicit inserts edges in lexicographic rank order,
// so edge indices coincide across backends), which lets us run whole
// protocols -- BuildMST, BuildST, FindMin, deletion repair, GHS -- on the
// same topology served by the adjacency, CSR and implicit backends and
// require the full sim::Metrics block to be bit-identical, under every
// transport (sync / async / adversarial).
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "baseline/ghs.h"
#include "core/build_mst.h"
#include "core/build_st.h"
#include "core/find_min.h"
#include "core/repair.h"
#include "graph/mst_oracle.h"
#include "test_util.h"

namespace kkt::scenario {
namespace {

using test::NetKind;
using test::World;

// Small instances of each implicit family; every (family, seed) topology is
// identical across backends by construction.
GraphSpec family_spec(GraphFamily fam) {
  switch (fam) {
    case GraphFamily::kIComplete:
      return GraphSpec::icomplete(24);
    case GraphFamily::kIGridLong:
      return GraphSpec::igridlong(36, /*long_links=*/3);
    default:
      return GraphSpec::igeo(40, /*target_degree=*/6.0);
  }
}

sim::Metrics run_one(GraphFamily fam, GraphBackend backend,
                     std::uint64_t seed, NetKind kind, bool premark,
                     const ScenarioBody& body) {
  Scenario sc;
  sc.graph = family_spec(fam);
  sc.graph.backend = backend;
  sc.net.kind = kind;
  sc.seed = seed;
  sc.net_seed = seed ^ test::kTestNetSeedSalt;
  sc.premark_msf = premark;
  return run_scenario(sc, body);
}

// Runs `body` on all three backends under every transport; the adjacency
// backend is the reference block.
void expect_backends_agree(GraphFamily fam, std::uint64_t seed, bool premark,
                           const ScenarioBody& body) {
  for (const NetKind kind :
       {NetKind::kSync, NetKind::kAsync, NetKind::kAdversarial}) {
    const sim::Metrics base =
        run_one(fam, GraphBackend::kAdjacency, seed, kind, premark, body);
    EXPECT_GT(base.messages, 0u);
    for (const GraphBackend b : {GraphBackend::kCsr, GraphBackend::kImplicit}) {
      EXPECT_EQ(base, run_one(fam, b, seed, kind, premark, body))
          << family_name(fam) << " backend=" << backend_name(b)
          << " net=" << net_kind_name(kind) << " seed=" << seed;
    }
  }
}

class BackendSweep
    : public ::testing::TestWithParam<std::tuple<GraphFamily,
                                                 std::uint64_t>> {};

TEST_P(BackendSweep, BuildMstBitIdentical) {
  const auto [fam, seed] = GetParam();
  expect_backends_agree(fam, seed, /*premark=*/false, [](World& w) {
    core::build_mst(*w.net, *w.forest);
    // Exact MSF regardless of connectivity (igeo may have >1 component).
    EXPECT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                     graph::kruskal_msf(*w.g)));
  });
}

TEST_P(BackendSweep, BuildStBitIdentical) {
  const auto [fam, seed] = GetParam();
  expect_backends_agree(fam, seed, /*premark=*/false, [](World& w) {
    core::build_st(*w.net, *w.forest);
    EXPECT_TRUE(w.forest->is_spanning_forest());
  });
}

TEST_P(BackendSweep, FindMinBitIdentical) {
  const auto [fam, seed] = GetParam();
  // Premarked MSF, one tree edge cut: FindMin must locate the lightest
  // cut-crossing edge, walking sorted_incident_range windows on each
  // backend's own machinery.
  expect_backends_agree(fam, seed, /*premark=*/true, [](World& w) {
    const auto msf = w.forest->marked_edges();
    ASSERT_FALSE(msf.empty());
    const graph::EdgeIdx split = msf[msf.size() / 2];
    w.forest->clear_edge(split);
    // Root on the larger side of the cut so the search actually traverses
    // tree edges (a singleton component answers locally, zero messages).
    const graph::Edge se = w.g->edge(split);
    graph::NodeId root = se.u;
    if (w.forest->component_of(root).size() < 2) root = se.v;
    proto::TreeOps ops(*w.net, graph::TreeView(*w.forest));
    const core::FindMinResult res = core::find_min(ops, root);
    const auto oracle =
        graph::min_cut_edge(*w.g, test::side_of(w, root));
    EXPECT_EQ(res.found, oracle.has_value());
    if (res.found && oracle) {
      EXPECT_EQ(res.edge_num, w.g->edge_num(*oracle));
    }
  });
}

TEST_P(BackendSweep, RepairBitIdentical) {
  const auto [fam, seed] = GetParam();
  // Deletion repair mutates the graph: the CSR backend unlinks in-row, the
  // implicit backend materialises copy-on-write overlays. Same deletions,
  // same replacement searches, same counters.
  expect_backends_agree(fam, seed, /*premark=*/true, [seed](World& w) {
    core::DynamicForest dyn(*w.g, *w.forest, *w.net, core::ForestKind::kMst);
    util::Rng pick(seed * 31 + 7);
    for (int i = 0; i < 3; ++i) {
      const auto tree = w.forest->marked_edges();
      ASSERT_FALSE(tree.empty());
      dyn.delete_edge(tree[pick.below(tree.size())]);
      const auto alive = w.g->alive_edge_indices();
      ASSERT_FALSE(alive.empty());
      dyn.delete_edge(alive[pick.below(alive.size())]);
    }
    EXPECT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                     graph::kruskal_msf(*w.g)));
  });
}

TEST_P(BackendSweep, GhsBitIdentical) {
  const auto [fam, seed] = GetParam();
  expect_backends_agree(fam, seed, /*premark=*/false, [](World& w) {
    baseline::ghs_build_mst(*w.net, *w.forest);
    EXPECT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                     graph::kruskal_msf(*w.g)));
  });
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndSeeds, BackendSweep,
    ::testing::Combine(::testing::Values(GraphFamily::kIComplete,
                                         GraphFamily::kIGridLong,
                                         GraphFamily::kIGeometric),
                       ::testing::Values(1u, 7u, 1234u)),
    [](const auto& info) {
      return std::string(family_name(std::get<0>(info.param))) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

// CSR must also pin classic (non-implicit) families against adjacency: the
// freeze copies rows verbatim, so a whole protocol sees identical order.
TEST(BackendClassic, CsrMatchesAdjacencyOnGnm) {
  for (const std::uint64_t seed : {1u, 7u, 1234u}) {
    Scenario sc = test::gnm_scenario(48, 160, seed);
    const ScenarioBody body = [](World& w) {
      EXPECT_TRUE(core::build_mst(*w.net, *w.forest).spanning);
    };
    const sim::Metrics base = run_scenario(sc, body);
    sc.graph.backend = GraphBackend::kCsr;
    EXPECT_EQ(base, run_scenario(sc, body)) << "seed=" << seed;
  }
}

// The auto backend resolves to implicit for implicit families; an explicit
// request must be the same world.
TEST(BackendClassic, AutoResolvesToImplicit) {
  Scenario sc;
  sc.graph = GraphSpec::icomplete(16);
  sc.seed = 3;
  World a = make_world(sc);
  EXPECT_EQ(a.g->backend(), graph::Graph::Backend::kImplicit);
  sc.graph.backend = GraphBackend::kAdjacency;
  World b = make_world(sc);
  EXPECT_EQ(b.g->backend(), graph::Graph::Backend::kAdjacency);
  sc.graph.backend = GraphBackend::kCsr;
  World c = make_world(sc);
  EXPECT_EQ(c.g->backend(), graph::Graph::Backend::kCsr);
  ASSERT_EQ(a.g->edge_slots(), b.g->edge_slots());
  ASSERT_EQ(b.g->edge_slots(), c.g->edge_slots());
  for (graph::EdgeIdx e = 0; e < a.g->edge_slots(); ++e) {
    EXPECT_EQ(a.g->aug_weight(e), b.g->aug_weight(e)) << "e=" << e;
    EXPECT_EQ(b.g->aug_weight(e), c.g->aug_weight(e)) << "e=" << e;
  }
}

}  // namespace
}  // namespace kkt::scenario
