// One fixed delay, three factories: async with max_delay 1 and adversarial
// with bounds {1, 1} and no jitter fix every delay at one tick, exactly as
// the synchronous schedule does. These pins run whole protocols on the
// sync schedule and on a `kind` twin, and require the full Metrics block
// (messages, bits, rounds, per-tag splits, state high-water) to match bit
// for bit. A divergence means a factory's clamping moved a delivery, which
// would silently invalidate every counter baseline.
//
// The NetKind parameter names the twin:
//   kSync        -- a second sync world (run-to-run determinism);
//   kAsync       -- NetSpec::async with max_delay 1;
//   kAdversarial -- NetSpec::adversarial with min = max = 1 and no jitter
//                   (test::unit_adversarial_net()).
#include <gtest/gtest.h>

#include <tuple>
#include <utility>

#include "baseline/ghs.h"
#include "core/build_mst.h"
#include "core/repair.h"
#include "graph/mst_oracle.h"
#include "test_util.h"
#include "workload/churn.h"

namespace kkt::sim {
namespace {

using test::NetKind;
using test::World;

scenario::NetSpec unit_twin(NetKind kind) {
  switch (kind) {
    case NetKind::kSync:
      return scenario::NetSpec::sync();
    case NetKind::kAsync:
      return scenario::NetSpec::async(AsyncConfig{1});
    case NetKind::kAdversarial:
      break;
  }
  return test::unit_adversarial_net();
}

// Runs `body(world)` on the sync schedule and on the `kind` twin, and
// returns the two metric blocks.
template <typename Body>
std::pair<Metrics, Metrics> both_paths(std::size_t n, std::size_t m,
                                       std::uint64_t seed, NetKind kind,
                                       Body&& body) {
  World sync = test::make_gnm_world(n, m, seed);
  EXPECT_EQ(sync.net->policy().horizon(), 1u);
  body(sync);

  World twin = test::make_gnm_world(n, m, seed, unit_twin(kind));
  EXPECT_EQ(twin.net->policy().horizon(), 1u);
  body(twin);

  return {sync.net->metrics(), twin.net->metrics()};
}

class FastPathSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, NetKind>> {};

TEST_P(FastPathSweep, BuildMstCountersBitIdentical) {
  const auto [seed, kind] = GetParam();
  const auto [sync, twin] =
      both_paths(64, 256, seed, kind, [](World& w) {
        EXPECT_TRUE(core::build_mst(*w.net, *w.forest).spanning);
        EXPECT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                         graph::kruskal_msf(*w.g)));
      });
  EXPECT_EQ(sync, twin);
  EXPECT_GT(sync.messages, 0u);
}

TEST_P(FastPathSweep, BuildStCountersBitIdentical) {
  const auto [seed, kind] = GetParam();
  const auto [sync, twin] =
      both_paths(48, 160, seed, kind, [](World& w) {
        EXPECT_TRUE(core::build_st(*w.net, *w.forest).spanning);
      });
  EXPECT_EQ(sync, twin);
}

TEST_P(FastPathSweep, GhsCountersBitIdentical) {
  const auto [seed, kind] = GetParam();
  const auto [sync, twin] =
      both_paths(48, 160, seed, kind, [](World& w) {
        EXPECT_TRUE(baseline::ghs_build_mst(*w.net, *w.forest).spanning);
      });
  EXPECT_EQ(sync, twin);
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, FastPathSweep,
    ::testing::Combine(::testing::Values(1u, 7u, 1234u),
                       ::testing::Values(NetKind::kSync, NetKind::kAsync,
                                         NetKind::kAdversarial)));

TEST(FastPath, RepairCountersBitIdentical) {
  const auto run = [](const scenario::NetSpec& net) {
    World w = test::make_gnm_world(40, 160, 99, net);
    test::mark_msf(w);
    core::DynamicForest dyn(*w.g, *w.forest, *w.net, core::ForestKind::kMst);
    util::Rng pick(99 * 31);
    for (int i = 0; i < 8; ++i) {
      const auto alive = w.g->alive_edge_indices();
      dyn.delete_edge(alive[pick.below(alive.size())]);
    }
    EXPECT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                     graph::kruskal_msf(*w.g)));
    return w.net->metrics();
  };
  EXPECT_EQ(run(scenario::NetSpec::sync()),
            run(test::unit_adversarial_net()));
}

// The adversarial schedule's draw order and salt, pinned: no counter
// baseline runs NetKind::kAdversarial, so these fixed-seed goldens of the
// whole Metrics block are its gate. A schedule change that moves a single
// delivery moves the rounds and, through the protocols' reactions, the
// traffic; these strings must then be re-derived on purpose.
TEST(AdversarialSchedule, BuildMstMetricsArePinned) {
  World w = test::make_gnm_world(64, 256, 5, scenario::NetSpec::adversarial());
  EXPECT_TRUE(core::build_mst(*w.net, *w.forest).spanning);
  EXPECT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                   graph::kruskal_msf(*w.g)));
  EXPECT_EQ(test::describe(w.net->metrics()),
            "messages=4975 bits=1841264 rounds=3517 echoes=1730 oversized=0 "
            "dropped=0 state=576 broadcast=2382/945824 echo=2273/883344 "
            "elect-echo=128/2048 leader-announce=109/8720 add-edge=83/1328");
}

TEST(AdversarialSchedule, UniformChurnMetricsArePinned) {
  scenario::Scenario sc = test::gnm_scenario(64, 256, 5);
  sc.net = scenario::NetSpec::adversarial();
  sc.workload =
      workload::WorkloadSpec::of(workload::WorkloadKind::kUniform, 64);
  const workload::ChurnResult res = workload::run_churn(sc);
  EXPECT_EQ(res.oracle_failures, 0u);
  EXPECT_EQ(res.records.size(), 64u);
  EXPECT_EQ(test::describe(res.total),
            "messages=19149 bits=6491536 rounds=32248 echoes=201 oversized=0 "
            "dropped=0 state=576 broadcast=10018/3181920 echo=9114/3309344 "
            "add-edge=17/272");
}

}  // namespace
}  // namespace kkt::sim
