// Intra-run sharding (sim/shard.h) is a delivery-order-preserving execution
// strategy: partition the nodes into S shards, deliver each round's
// envelopes on a worker pool, and merge the per-shard outboxes at the round
// barrier in the exact order the sequential loop would have produced them.
// The determinism contract is therefore total: the full Metrics block
// (messages, bits, rounds, per-tag splits, state high-water) must be bit
// identical at every shard count, under either partition function, and
// against the unsharded heap path. These pins run whole protocols once per
// configuration and compare the blocks with operator==; any divergence
// means the barrier merge reordered a delivery.
//
// The suite carries the `parallel` ctest label so the ThreadSanitizer
// preset runs it: with set_shard_serial_cutoff(0) every round -- however
// small -- crosses the worker pool, which is what makes these graphs large
// enough to race-test the lanes without being slow.
#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "baseline/ghs.h"
#include "core/build_mst.h"
#include "core/build_st.h"
#include "core/repair.h"
#include "graph/mst_oracle.h"
#include "test_util.h"

namespace kkt::sim {
namespace {

using test::NetKind;
using test::World;

struct ShardConfig {
  ShardSpec spec{};
  // 0 forces every round through the worker pool (TSan coverage); the
  // negative sentinel keeps the production default cutoff.
  int serial_cutoff = 0;
  bool round_batching = true;  // false: the (timestamp, seq) heap path
};

ShardConfig sharded(int shards,
                    ShardPartition part = ShardPartition::kContiguous) {
  ShardConfig c;
  c.spec = ShardSpec{shards, part};
  return c;
}

ShardConfig heap_path() {
  ShardConfig c;
  c.round_batching = false;
  return c;
}

// Runs `body(world)` on a fresh world under one shard configuration and
// returns the metric block.
template <typename Body>
Metrics run_config(std::size_t n, std::size_t m, std::uint64_t seed,
                   NetKind kind, const ShardConfig& cfg, Body&& body) {
  World w = test::make_gnm_world(n, m, seed, kind);
  w.net->set_shards(cfg.spec);
  if (cfg.serial_cutoff >= 0) {
    w.net->set_shard_serial_cutoff(
        static_cast<std::size_t>(cfg.serial_cutoff));
  }
  if (!cfg.round_batching) w.net->set_round_batching(false);
  body(w);
  return w.net->metrics();
}

class ShardSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ShardSweep, BuildMstCountersBitIdentical) {
  const std::uint64_t seed = GetParam();
  const auto body = [](World& w) {
    EXPECT_TRUE(core::build_mst(*w.net, *w.forest).spanning);
    EXPECT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                     graph::kruskal_msf(*w.g)));
  };
  const Metrics base =
      run_config(64, 256, seed, NetKind::kSync, sharded(1), body);
  EXPECT_GT(base.messages, 0u);
  for (const int s : {2, 8}) {
    EXPECT_EQ(base, run_config(64, 256, seed, NetKind::kSync, sharded(s),
                               body))
        << "shards=" << s;
  }
  EXPECT_EQ(base,
            run_config(64, 256, seed, NetKind::kSync, heap_path(), body));
}

TEST_P(ShardSweep, BuildStCountersBitIdentical) {
  const std::uint64_t seed = GetParam();
  const auto body = [](World& w) {
    EXPECT_TRUE(core::build_st(*w.net, *w.forest).spanning);
  };
  const Metrics base =
      run_config(48, 160, seed, NetKind::kSync, sharded(1), body);
  for (const int s : {2, 8}) {
    EXPECT_EQ(base, run_config(48, 160, seed, NetKind::kSync, sharded(s),
                               body))
        << "shards=" << s;
  }
  EXPECT_EQ(base,
            run_config(48, 160, seed, NetKind::kSync, heap_path(), body));
}

// GhsSearch declares shard_safe() == false (its shared rejected-edge table
// is written and read within one round), so the GHS pipeline interleaves
// sharded and degraded runs -- the counters still must not move.
TEST_P(ShardSweep, GhsCountersBitIdentical) {
  const std::uint64_t seed = GetParam();
  const auto body = [](World& w) {
    EXPECT_TRUE(baseline::ghs_build_mst(*w.net, *w.forest).spanning);
  };
  const Metrics base =
      run_config(48, 160, seed, NetKind::kSync, sharded(1), body);
  for (const int s : {2, 8}) {
    EXPECT_EQ(base, run_config(48, 160, seed, NetKind::kSync, sharded(s),
                               body))
        << "shards=" << s;
  }
  EXPECT_EQ(base,
            run_config(48, 160, seed, NetKind::kSync, heap_path(), body));
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardSweep,
                         ::testing::Values(1u, 7u, 1234u));

// Deletion repair drives broadcasts, handshakes and cycle-breaking through
// the sharded lanes; the whole maintenance session must cost the same at
// every shard count and on the heap path.
TEST(Shard, RepairCountersBitIdentical) {
  const auto session = [](const ShardConfig& cfg) {
    return run_config(40, 160, 99, NetKind::kSync, cfg, [](World& w) {
      test::mark_msf(w);
      core::DynamicForest dyn(*w.g, *w.forest, *w.net,
                              core::ForestKind::kMst);
      util::Rng pick(99 * 31);
      for (int i = 0; i < 4; ++i) {
        // A marked (tree) edge first -- forces a replacement search
        // through the sharded lanes -- then a random survivor.
        const auto marked = w.forest->marked_edges();
        dyn.delete_edge(marked[pick.below(marked.size())]);
        const auto alive = w.g->alive_edge_indices();
        dyn.delete_edge(alive[pick.below(alive.size())]);
      }
      EXPECT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                       graph::kruskal_msf(*w.g)));
    });
  };
  const Metrics base = session(sharded(1));
  EXPECT_GT(base.messages, 0u);
  EXPECT_EQ(base, session(sharded(2)));
  EXPECT_EQ(base, session(sharded(8)));
  EXPECT_EQ(base, session(heap_path()));
}

// TreeView walks rebuild the forest's tree index lazily inside handlers.
// With the serial cutoff at 0, every rebuild and every slab growth of a
// build on a degree-32 graph runs on a shard worker (the tsan preset runs
// this suite), next to workers reading their own entries. The counters
// stay those of S=1 and the index audit passes afterwards.
TEST(Shard, TreeIndexRebuildsOnWorkersBitIdentical) {
  const auto body = [](World& w) {
    EXPECT_TRUE(core::build_mst(*w.net, *w.forest).spanning);
    EXPECT_TRUE(w.forest->verify_state());
  };
  const Metrics base =
      run_config(96, 1536, 21, NetKind::kSync, sharded(1), body);
  EXPECT_GT(base.messages, 0u);
  EXPECT_EQ(base,
            run_config(96, 1536, 21, NetKind::kSync, sharded(8), body));
}

// The hash partition scatters neighbors across shards (worst case for the
// merge); the counters still may not move relative to contiguous blocks.
TEST(Shard, HashPartitionBitIdentical) {
  const auto body = [](World& w) {
    EXPECT_TRUE(core::build_mst(*w.net, *w.forest).spanning);
  };
  const Metrics contiguous = run_config(
      64, 256, 7, NetKind::kSync,
      sharded(4, ShardPartition::kContiguous), body);
  const Metrics hashed = run_config(
      64, 256, 7, NetKind::kSync, sharded(4, ShardPartition::kHash), body);
  EXPECT_EQ(contiguous, hashed);
}

// The production serial cutoff routes small rounds around the pool; mixing
// serial and worker rounds inside one run must be invisible to the block.
TEST(Shard, SerialCutoffInert) {
  const auto body = [](World& w) {
    EXPECT_TRUE(core::build_mst(*w.net, *w.forest).spanning);
  };
  ShardConfig forced = sharded(4);           // cutoff 0: all worker rounds
  ShardConfig production = sharded(4);
  production.serial_cutoff = -1;             // keep the default cutoff
  const Metrics all_worker =
      run_config(96, 512, 5, NetKind::kSync, forced, body);
  const Metrics mixed =
      run_config(96, 512, 5, NetKind::kSync, production, body);
  EXPECT_EQ(all_worker, mixed);
}

// Async and adversarial transports never take the round-batched path, so a
// shard request must quietly degrade to the (timestamp, seq) heap: the
// knob is inert off the sync fast path, exactly like set_round_batching.
TEST(Shard, AsyncAndAdversarialDegradeToHeap) {
  for (const NetKind kind : {NetKind::kAsync, NetKind::kAdversarial}) {
    const auto body = [](World& w) {
      EXPECT_TRUE(core::build_mst(*w.net, *w.forest).spanning);
    };
    const Metrics unsharded =
        run_config(48, 160, 3, kind, sharded(1), body);
    const Metrics requested =
        run_config(48, 160, 3, kind, sharded(8), body);
    EXPECT_EQ(unsharded, requested) << scenario::net_kind_name(kind);
  }
}

// The spec survives the plumbing and normalizes degenerate counts.
TEST(Shard, SpecPlumbingAndNormalization) {
  World w = test::make_gnm_world(16, 32, 1, NetKind::kSync);
  EXPECT_EQ(w.net->shard_spec().shards, 1);
  w.net->set_shards(ShardSpec{6, ShardPartition::kHash});
  EXPECT_EQ(w.net->shard_spec().shards, 6);
  EXPECT_EQ(w.net->shard_spec().partition, ShardPartition::kHash);
  w.net->set_shards(0);
  EXPECT_EQ(w.net->shard_spec().shards, 1);

  scenario::Scenario sc = test::gnm_scenario(16, 32, 1);
  sc.net.shards = ShardSpec{4, ShardPartition::kContiguous};
  World plumbed = scenario::make_world(sc);
  EXPECT_EQ(plumbed.net->shard_spec().shards, 4);
}

}  // namespace
}  // namespace kkt::sim
