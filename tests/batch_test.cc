// Batched deletion repair (the paper's "simultaneous edge changes" future
// work; see DynamicForest::delete_batch).
#include <gtest/gtest.h>

#include <string>

#include "core/repair.h"
#include "graph/mst_oracle.h"
#include "test_util.h"

namespace kkt::core {
namespace {

using graph::EdgeIdx;
using graph::NodeId;
using test::World;

World make_repair_world(std::size_t n, std::size_t m, std::uint64_t seed) {
  World w = test::make_gnm_world(n, m, seed, test::NetKind::kAsync);
  test::mark_msf(w);
  return w;
}

// Picks k distinct alive edges, preferring tree edges.
std::vector<EdgeIdx> pick_batch(const World& w, std::size_t k,
                                std::uint64_t seed, bool tree_only) {
  util::Rng rng(seed);
  std::vector<EdgeIdx> pool =
      tree_only ? w.forest->marked_edges() : w.g->alive_edge_indices();
  std::vector<EdgeIdx> out;
  while (out.size() < k && !pool.empty()) {
    const std::size_t i = rng.below(pool.size());
    out.push_back(pool[i]);
    pool[i] = pool.back();
    pool.pop_back();
  }
  return out;
}

class BatchSweep
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t>> {};

TEST_P(BatchSweep, MstBatchDeletionStaysExact) {
  const auto [k, seed] = GetParam();
  World w = make_repair_world(32, 160, seed);
  DynamicForest dyn(*w.g, *w.forest, *w.net, ForestKind::kMst);
  const auto batch = pick_batch(w, k, seed * 7, /*tree_only=*/true);
  const auto out = dyn.delete_batch(batch);
  EXPECT_EQ(out.tree_edges_removed, batch.size());
  EXPECT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                   graph::kruskal_msf(*w.g)));
  EXPECT_GE(out.replacements, 1u);
  EXPECT_GE(out.phases, 1u);
}

TEST_P(BatchSweep, StBatchDeletionStaysSpanning) {
  const auto [k, seed] = GetParam();
  World w = make_repair_world(32, 160, seed + 50);
  DynamicForest dyn(*w.g, *w.forest, *w.net, ForestKind::kSt);
  const auto batch = pick_batch(w, k, seed * 11, /*tree_only=*/true);
  dyn.delete_batch(batch);
  EXPECT_TRUE(w.forest->properly_marked());
  EXPECT_TRUE(w.forest->is_spanning_forest());
}

INSTANTIATE_TEST_SUITE_P(KSweep, BatchSweep,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8),
                                            ::testing::Values(1u, 2u, 3u)));

TEST(Batch, MixedTreeAndNonTreeEdges) {
  World w = make_repair_world(24, 120, 9);
  DynamicForest dyn(*w.g, *w.forest, *w.net, ForestKind::kMst);
  const auto batch = pick_batch(w, 10, 9, /*tree_only=*/false);
  const auto out = dyn.delete_batch(batch);
  EXPECT_LE(out.tree_edges_removed, batch.size());
  EXPECT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                   graph::kruskal_msf(*w.g)));
}

TEST(Batch, NonTreeOnlyBatchIsFree) {
  World w = make_repair_world(20, 100, 10);
  DynamicForest dyn(*w.g, *w.forest, *w.net, ForestKind::kMst);
  std::vector<EdgeIdx> batch;
  for (EdgeIdx e : w.g->alive_edge_indices()) {
    if (!w.forest->is_marked(e)) batch.push_back(e);
    if (batch.size() == 6) break;
  }
  const auto out = dyn.delete_batch(batch);
  EXPECT_EQ(out.tree_edges_removed, 0u);
  EXPECT_EQ(out.messages, 0u);
  EXPECT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                   graph::kruskal_msf(*w.g)));
}

TEST(Batch, DisconnectingBatchLeavesCleanForest) {
  // Delete every edge incident to one node: it becomes isolated; the rest
  // must be repaired exactly.
  World w = make_repair_world(16, 40, 11);
  DynamicForest dyn(*w.g, *w.forest, *w.net, ForestKind::kMst);
  std::vector<EdgeIdx> batch;
  for (const auto& inc : w.g->incident(3)) batch.push_back(inc.edge);
  dyn.delete_batch(batch);
  EXPECT_EQ(w.g->degree(3), 0u);
  EXPECT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                   graph::kruskal_msf(*w.g)));
}

TEST(Batch, WholeTreeDeletion) {
  // Deleting every tree edge at once is a full rebuild restricted to the
  // surviving edges.
  World w = make_repair_world(20, 120, 12);
  DynamicForest dyn(*w.g, *w.forest, *w.net, ForestKind::kMst);
  const auto out = dyn.delete_batch(w.forest->marked_edges());
  EXPECT_EQ(out.tree_edges_removed, 19u);
  EXPECT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                   graph::kruskal_msf(*w.g)));
}

TEST(Batch, TimeIsSublinearInBatchSize) {
  // The point of batching: fragments repair in parallel phases, so elapsed
  // time grows much slower than k sequential repairs.
  const std::size_t k = 8;
  std::uint64_t batch_rounds = 0, seq_rounds = 0;
  {
    World w = make_repair_world(48, 380, 13);
    DynamicForest dyn(*w.g, *w.forest, *w.net, ForestKind::kMst);
    const auto batch = pick_batch(w, k, 13, true);
    batch_rounds = dyn.delete_batch(batch).rounds;
    EXPECT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                     graph::kruskal_msf(*w.g)));
  }
  {
    World w = make_repair_world(48, 380, 13);
    DynamicForest dyn(*w.g, *w.forest, *w.net, ForestKind::kMst);
    const auto batch = pick_batch(w, k, 13, true);
    for (EdgeIdx e : batch) seq_rounds += dyn.delete_edge(e).rounds;
  }
  EXPECT_LT(batch_rounds, seq_rounds);
}

// The batch repair path, pinned: no counter baseline runs ForestKind::kSt
// through delete_batch, so these fixed-seed goldens of the whole Metrics
// block and the batch outcome gate both kinds' phase loops. A change that
// moves one draw or one send moves these strings.
std::string pinned_batch(ForestKind kind) {
  World w = make_repair_world(128, 512, 28);
  DynamicForest dyn(*w.g, *w.forest, *w.net, kind);
  const auto batch = pick_batch(w, 6, 2028, /*tree_only=*/true);
  const auto out = dyn.delete_batch(batch);
  EXPECT_TRUE(w.forest->properly_marked());
  EXPECT_TRUE(w.forest->is_spanning_forest());
  if (kind == ForestKind::kMst) {
    EXPECT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                     graph::kruskal_msf(*w.g)));
  }
  return "removed=" + std::to_string(out.tree_edges_removed) +
         " replacements=" + std::to_string(out.replacements) +
         " phases=" + std::to_string(out.phases) + " " +
         test::describe(w.net->metrics());
}

TEST(BatchRepair, MstMetricsArePinned) {
  EXPECT_EQ(pinned_batch(ForestKind::kMst),
            "removed=6 replacements=7 phases=2 messages=6905 bits=2481680 "
            "rounds=6213 echoes=166 oversized=0 dropped=0 state=576 "
            "broadcast=3258/1262624 echo=3137/1195024 elect-echo=255/4080 "
            "leader-announce=248/19840 add-edge=7/112");
}

TEST(BatchRepair, StMetricsArePinned) {
  EXPECT_EQ(pinned_batch(ForestKind::kSt),
            "removed=6 replacements=52 phases=19 messages=29305 "
            "bits=5993488 rounds=26159 echoes=267 oversized=0 dropped=0 "
            "state=320 broadcast=12033/4474512 echo=9944/1220992 "
            "elect-echo=4271/68336 leader-announce=2824/225920 "
            "cycle-unmark=181/2896 add-edge=52/832");
}

}  // namespace
}  // namespace kkt::core
