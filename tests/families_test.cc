// Cross-family property tests: every construction algorithm must produce
// its exact specification on every topology family, including degenerate
// weight ranges; costs must respect coarse model bounds (rounds, budget).
#include <gtest/gtest.h>

#include <functional>

#include "baseline/flood_st.h"
#include "baseline/ghs.h"
#include "core/build_mst.h"
#include "core/repair.h"
#include "core/verify.h"
#include "graph/mst_oracle.h"
#include "test_util.h"

namespace kkt::core {
namespace {

using graph::EdgeIdx;
using graph::Graph;
using graph::NodeId;
using test::World;

struct Family {
  const char* name;
  std::function<Graph(util::Rng&)> make;
};

// Weight 4 maximizes raw-weight ties; the hierarchy must come from edge
// numbers alone.
const Family kFamilies[] = {
    {"path16", [](util::Rng& rng) {
       Graph g(16, rng);
       for (NodeId v = 0; v + 1 < 16; ++v) g.add_edge(v, v + 1, 1 + v % 4);
       return g;
     }},
    {"star32", [](util::Rng& rng) {
       Graph g(32, rng);
       for (NodeId v = 1; v < 32; ++v) g.add_edge(0, v, 1 + v % 7);
       return g;
     }},
    {"ring24", [](util::Rng& rng) { return graph::ring(24, {4}, rng); }},
    {"grid6x7", [](util::Rng& rng) { return graph::grid(6, 7, {16}, rng); }},
    {"barbell8", [](util::Rng& rng) { return graph::barbell(8, 3, {100}, rng); }},
    {"prefattach", [](util::Rng& rng) {
       return graph::preferential_attachment(40, 3, {1u << 12}, rng);
     }},
    {"geometric", [](util::Rng& rng) {
       return graph::random_geometric(40, 0.35, {1u << 12}, rng);
     }},
    {"unit_weights", [](util::Rng& rng) {
       return graph::random_connected_gnm(32, 150, {1}, rng);
     }},
    {"hier5", [](util::Rng& rng) { return graph::hierarchical_complete(5, rng); }},
    {"complete20", [](util::Rng& rng) { return graph::complete(20, {8}, rng); }},
};

class FamilySweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {
 protected:
  World make() {
    const auto [f, seed] = GetParam();
    util::Rng rng(seed);
    auto g = std::make_unique<Graph>(kFamilies[f].make(rng));
    return test::make_world(std::move(g), seed * 131);
  }
};

TEST_P(FamilySweep, BuildMstMatchesOracleEverywhere) {
  World w = make();
  const BuildStats stats = build_mst(*w.net, *w.forest);
  EXPECT_TRUE(stats.spanning);
  EXPECT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                   graph::kruskal_msf(*w.g)));
  EXPECT_EQ(w.net->metrics().oversized_messages, 0u);
  EXPECT_TRUE(verify_spanning(*w.net, *w.forest).spanning_forest());
}

TEST_P(FamilySweep, BuildStSpansEverywhere) {
  World w = make();
  const BuildStats stats = build_st(*w.net, *w.forest);
  EXPECT_TRUE(stats.spanning);
  EXPECT_TRUE(w.forest->is_spanning_forest());
  EXPECT_TRUE(verify_spanning(*w.net, *w.forest).spanning_forest());
}

TEST_P(FamilySweep, GhsMatchesOracleEverywhere) {
  World w = make();
  const baseline::GhsStats stats = baseline::ghs_build_mst(*w.net, *w.forest);
  EXPECT_TRUE(stats.spanning);
  EXPECT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                   graph::kruskal_msf(*w.g)));
}

TEST_P(FamilySweep, FloodingSpansEverywhere) {
  World w = make();
  baseline::flood_build_st(*w.net, *w.forest);
  EXPECT_TRUE(w.forest->is_spanning_forest());
}

TEST_P(FamilySweep, RepairSurvivesDeletionSweep) {
  // Delete several tree edges in sequence (async); exact MSF after each.
  const auto [f, seed] = GetParam();
  util::Rng rng(seed);
  auto g = std::make_unique<Graph>(kFamilies[f].make(rng));
  World w = test::make_world(std::move(g), seed * 977, test::NetKind::kAsync);
  test::mark_msf(w);
  DynamicForest dyn(*w.g, *w.forest, *w.net, ForestKind::kMst);
  util::Rng pick(seed);
  for (int i = 0; i < 5 && w.g->edge_count() > 2; ++i) {
    const auto tree = w.forest->marked_edges();
    dyn.delete_edge(tree[pick.below(tree.size())]);
    EXPECT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                     graph::kruskal_msf(*w.g)))
        << kFamilies[f].name << " step " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, FamilySweep,
    ::testing::Combine(::testing::Range(0, 10), ::testing::Values(1u, 2u)),
    [](const auto& info) {
      return std::string(kFamilies[std::get<0>(info.param)].name) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

// --- model-cost sanity across families -------------------------------------

// Unordered-container audit pin (satellite of the kkt_lint PR): the
// preferential-attachment generator now emits edges in draw order, so the
// model-cost counters on that family are seed-determined on every stdlib.
// These exact values double as the refactor guard determinism rule 3 asks
// for -- a sim or graph change that moves them must say so.
TEST(ModelCosts, PrefattachBuildMstCountersArePinned) {
  util::Rng rng(7);
  auto g = std::make_unique<Graph>(
      graph::preferential_attachment(40, 3, {1u << 12}, rng));
  World w = test::make_world(std::move(g), 7 * 131);
  const BuildStats stats = build_mst(*w.net, *w.forest);
  EXPECT_TRUE(stats.spanning);
  EXPECT_EQ(w.net->metrics().messages, 1317u);
  EXPECT_EQ(w.net->metrics().message_bits, 471568u);
  EXPECT_EQ(w.net->metrics().rounds, 125u);
}

TEST(ModelCosts, DeepPathRoundsScaleWithDiameter) {
  // Broadcast-and-echo on a path of length n-1 takes ~2(n-1) rounds from an
  // end; the sync simulator must charge exactly that.
  util::Rng rng(1);
  auto g = std::make_unique<Graph>(64, rng);
  std::vector<EdgeIdx> edges;
  for (NodeId v = 0; v + 1 < 64; ++v) edges.push_back(g->add_edge(v, v + 1, 1));
  World w = test::make_world(std::move(g), 1);
  for (EdgeIdx e : edges) w.forest->mark_edge(e);
  proto::TreeOps ops(*w.net, graph::TreeView(*w.forest));
  ops.broadcast_echo(
      0, {},
      [](NodeId, std::span<const std::uint64_t>) { return proto::Words{1}; },
      proto::combine_sum());
  EXPECT_EQ(w.net->metrics().rounds, 2u * 63);
}

TEST(ModelCosts, PaperFaithfulFindMinStillExact) {
  // Disable every constant-factor refinement: single hash per TestOut and
  // both HP re-checks per iteration, exactly the paper's steps 4-8.
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    World w = test::make_gnm_world(16, 60, seed);
    const auto msf = test::mark_msf(w);
    w.forest->clear_edge(msf[seed % msf.size()]);
    const NodeId root = w.g->edge(msf[seed % msf.size()]).u;
    const auto lightest =
        graph::min_cut_edge(*w.g, test::side_of(w, root));
    proto::TreeOps ops(*w.net, graph::TreeView(*w.forest));
    FindMinConfig cfg;
    cfg.hash_reps = 1;
    cfg.skip_redundant_interval_check = false;
    cfg.skip_certified_low_check = false;
    const FindMinResult res = find_min(ops, root, cfg);
    ASSERT_TRUE(res.found) << "seed " << seed;
    EXPECT_EQ(res.edge_num, w.g->edge_num(*lightest));
  }
}

TEST(ModelCosts, PaperFaithfulModeCostsMore) {
  std::uint64_t faithful = 0, optimized = 0;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    World w = test::make_gnm_world(32, 200, seed);
    const auto msf = test::mark_msf(w);
    w.forest->clear_edge(msf[3]);
    const NodeId root = w.g->edge(msf[3]).u;
    proto::TreeOps ops(*w.net, graph::TreeView(*w.forest));
    const auto b0 = w.net->metrics().broadcast_echoes;
    FindMinConfig slow;
    slow.hash_reps = 1;
    slow.skip_redundant_interval_check = false;
    slow.skip_certified_low_check = false;
    find_min(ops, root, slow);
    const auto b1 = w.net->metrics().broadcast_echoes;
    find_min(ops, root);  // defaults
    faithful += b1 - b0;
    optimized += w.net->metrics().broadcast_echoes - b1;
  }
  EXPECT_GT(faithful, 2 * optimized);
}

TEST(ModelCosts, RepairLeavesNoPersistentScratch) {
  // Impromptu discipline: after an operation completes, re-running the same
  // kind of operation from a freshly constructed facade must behave
  // identically -- nothing depends on state outside graph + marks.
  World w = test::make_gnm_world(20, 80, 9, test::NetKind::kAsync);
  test::mark_msf(w);
  {
    DynamicForest dyn(*w.g, *w.forest, *w.net, ForestKind::kMst);
    const auto tree = w.forest->marked_edges();
    dyn.delete_edge(tree[2]);
  }  // facade destroyed: per-update state gone
  {
    DynamicForest dyn2(*w.g, *w.forest, *w.net, ForestKind::kMst);
    const auto tree = w.forest->marked_edges();
    const RepairOutcome out = dyn2.delete_edge(tree[5]);
    EXPECT_NE(out.action, RepairAction::kSearchFailed);
  }
  EXPECT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                   graph::kruskal_msf(*w.g)));
}

TEST(ModelCosts, StBuildOnAsyncNetwork) {
  // Construction is stated for synchronous networks, but the fragment ops
  // are phase-driven by the driver, so they also run to quiescence on the
  // async transport. (The paper poses asynchrony as an open problem; this
  // exercises robustness of the protocol layer, not a paper claim.)
  World w = test::make_gnm_world(24, 100, 10, test::NetKind::kAsync);
  const BuildStats stats = build_mst(*w.net, *w.forest);
  EXPECT_TRUE(stats.spanning);
  EXPECT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                   graph::kruskal_msf(*w.g)));
}

}  // namespace
}  // namespace kkt::core
