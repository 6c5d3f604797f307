// Backend-equivalence pins: the storage backend behind the Graph read API
// must be invisible to every protocol. A seeded family's own backend
// (implicit K_n, frozen igridlong / igeo), its adjacency clone() and its
// .kkg pack mapped back all serve the same rows and edge indices verbatim.
// That lets us run whole protocols -- BuildMST, BuildST, FindMin, GHS -- on
// the same topology served by every backend and require the full
// sim::Metrics block to be bit-identical, under every transport (sync /
// async / adversarial).
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "baseline/ghs.h"
#include "core/build_mst.h"
#include "core/find_min.h"
#include "graph/mst_oracle.h"
#include "graph/store.h"
#include "test_util.h"

namespace kkt::scenario {
namespace {

using test::NetKind;
using test::World;

// Small instances of each seeded family; every (family, seed) topology is
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

Scenario scenario_of(GraphFamily fam, GraphBackend backend,
                     std::uint64_t seed, NetKind kind, bool premark) {
  Scenario sc;
  sc.graph = family_spec(fam);
  sc.graph.backend = backend;
  sc.net.kind = kind;
  sc.seed = seed;
  sc.net_seed = seed ^ test::kTestNetSeedSalt;
  sc.premark_msf = premark;
  return sc;
}

// Packs `sc`'s graph into a per-test .kkg and maps it back read-only.
std::shared_ptr<const graph::FrozenStore> pack_and_map(const Scenario& sc) {
  const std::string path = test::temp_store_path("mapped");
  std::string error;
  EXPECT_TRUE(graph::pack_store(path, build_graph(sc.graph, sc.seed), &error))
      << error;
  auto store = graph::FrozenStore::open(path, &error);
  EXPECT_NE(store, nullptr) << error;
  std::remove(path.c_str());  // the mapping outlives the directory entry
  return store;
}

// run_scenario(sc, body) with the graph served by `store`: the same world
// make_world(sc) builds, served from the mapped file.
sim::Metrics run_mapped(const Scenario& sc,
                        std::shared_ptr<const graph::FrozenStore> store,
                        const ScenarioBody& body) {
  auto g = std::make_unique<graph::Graph>(
      graph::Graph::from_store(std::move(store)));
  World w = make_world(std::move(g), sc.net,
                       sc.net_seed.value_or(sc.seed ^ kNetSeedSalt));
  EXPECT_EQ(w.g->backend(), graph::Graph::Backend::kFrozen);
  if (sc.premark_msf) w.mark_msf();
  body(w);
  return w.net->metrics();
}

// Runs `body` on the family's own backend (auto), its adjacency clone and
// the mapped pack of the auto graph under every transport; auto is the
// reference block.
void expect_backends_agree(GraphFamily fam, std::uint64_t seed, bool premark,
                           const ScenarioBody& body) {
  const auto store = pack_and_map(
      scenario_of(fam, GraphBackend::kAuto, seed, NetKind::kSync, premark));
  ASSERT_NE(store, nullptr);
  for (const NetKind kind :
       {NetKind::kSync, NetKind::kAsync, NetKind::kAdversarial}) {
    const Scenario own =
        scenario_of(fam, GraphBackend::kAuto, seed, kind, premark);
    const sim::Metrics base = run_scenario(own, body);
    EXPECT_GT(base.messages, 0u);
    const std::string where = std::string(family_name(fam)) +
                              " net=" + net_kind_name(kind) +
                              " seed=" + std::to_string(seed);
    EXPECT_EQ(base, run_scenario(scenario_of(fam, GraphBackend::kAdjacency,
                                             seed, kind, premark),
                                 body))
        << where << " backend=clone";
    EXPECT_EQ(base, run_mapped(own, store, body)) << where << " backend=mapped";
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

// The mapped store must also pin classic (non-seeded) families against
// adjacency: the pack copies rows verbatim, so a whole protocol sees
// identical order.
TEST(BackendClassic, MappedMatchesAdjacencyOnGnm) {
  for (const std::uint64_t seed : {1u, 7u, 1234u}) {
    const Scenario sc = test::gnm_scenario(48, 160, seed);
    const ScenarioBody body = [](World& w) {
      EXPECT_TRUE(core::build_mst(*w.net, *w.forest).spanning);
    };
    const auto store = pack_and_map(sc);
    ASSERT_NE(store, nullptr);
    EXPECT_EQ(run_scenario(sc, body), run_mapped(sc, store, body))
        << "seed=" << seed;
  }
}

// The auto backend keeps each seeded generator's own: implicit for
// icomplete, frozen for igridlong / igeo. An explicit adjacency request must
// be the same world.
TEST(BackendClassic, AutoResolvesToImplicit) {
  for (const auto& [spec, own] :
       {std::pair(GraphSpec::icomplete(16), graph::Graph::Backend::kImplicit),
        std::pair(GraphSpec::igridlong(16), graph::Graph::Backend::kFrozen),
        std::pair(GraphSpec::igeo(16), graph::Graph::Backend::kFrozen)}) {
    Scenario sc;
    sc.graph = spec;
    sc.seed = 3;
    World a = make_world(sc);
    EXPECT_EQ(a.g->backend(), own) << family_name(spec.family);
    sc.graph.backend = GraphBackend::kAdjacency;
    World b = make_world(sc);
    EXPECT_EQ(b.g->backend(), graph::Graph::Backend::kAdjacency);
    ASSERT_EQ(a.g->edge_slots(), b.g->edge_slots());
    for (graph::EdgeIdx e = 0; e < a.g->edge_slots(); ++e) {
      EXPECT_EQ(a.g->aug_weight(e), b.g->aug_weight(e)) << "e=" << e;
    }
  }
}

// Workloads that mutate the graph (churn, fault injection) resolve auto to
// the adjacency backend, the only mutable one.
TEST(BackendClassic, MutableWorkloadsResolveToAdjacency) {
  GraphSpec spec = GraphSpec::igridlong(64);
  use_mutable_backend(spec);
  EXPECT_EQ(spec.backend, GraphBackend::kAdjacency);
  EXPECT_EQ(build_graph(spec, 1).backend(),
            graph::Graph::Backend::kAdjacency);
}

}  // namespace
}  // namespace kkt::scenario
