// SyncNetwork skips its policy on every send: under a unit-delay policy a
// send lands at now + 1 without a delivery_time call. The skip must be
// observationally identical to asking the policy. These pins run whole
// protocols on SyncNetwork and on a per-send twin whose policy produces the
// same schedule through those calls, and require the full
// Metrics block (messages, bits, rounds, per-tag splits, state high-water)
// to match bit for bit. Both drain the same timing wheel, so a divergence
// means the skip moved a delivery, which would silently invalidate every
// counter baseline.
//
// The NetKind parameter names the twin, a unit-delay schedule that does not
// declare unit_delay():
//   kSync        -- FifoSyncPolicy's schedule, asked per send;
//   kAsync       -- AsyncNetwork with max_delay 1 (one delay draw per send);
//   kAdversarial -- AdversarialNetwork with min = max = 1 and no jitter
//                   (test::unit_adversarial_net()).
#include <gtest/gtest.h>

#include <memory>
#include <tuple>

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

// FifoSyncPolicy's schedule without the unit_delay() promise.
class PerSendSyncPolicy final : public DeliveryPolicy {
 public:
  std::uint64_t delivery_time(NodeId, NodeId, std::uint64_t now) override {
    return now + 1;
  }
  std::uint64_t max_delay() const noexcept override { return 1; }
};

World per_send_twin(std::size_t n, std::size_t m, std::uint64_t seed,
                    NetKind kind) {
  switch (kind) {
    case NetKind::kSync: {
      World w = test::make_gnm_world(n, m, seed);
      w.net = std::make_unique<Network>(*w.g, seed ^ test::kTestNetSeedSalt,
                                        std::make_unique<PerSendSyncPolicy>());
      return w;
    }
    case NetKind::kAsync:
      return test::make_gnm_world(
          n, m, seed, scenario::NetSpec::async(AsyncNetwork::Config{1}));
    case NetKind::kAdversarial:
      break;
  }
  return test::make_gnm_world(n, m, seed, test::unit_adversarial_net());
}

// Runs `body(world)` on SyncNetwork and on the `kind` twin, and returns the
// two metric blocks.
template <typename Body>
std::pair<Metrics, Metrics> both_paths(std::size_t n, std::size_t m,
                                       std::uint64_t seed, NetKind kind,
                                       Body&& body) {
  World skip = test::make_gnm_world(n, m, seed);
  EXPECT_TRUE(skip.net->policy().unit_delay());
  body(skip);

  World twin = per_send_twin(n, m, seed, kind);
  EXPECT_FALSE(twin.net->policy().unit_delay());
  EXPECT_EQ(twin.net->policy().max_delay(), 1u);
  body(twin);

  return {skip.net->metrics(), twin.net->metrics()};
}

class FastPathSweep
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, NetKind>> {};

TEST_P(FastPathSweep, BuildMstCountersBitIdentical) {
  const auto [seed, kind] = GetParam();
  const auto [skip, twin] =
      both_paths(64, 256, seed, kind, [](World& w) {
        EXPECT_TRUE(core::build_mst(*w.net, *w.forest).spanning);
        EXPECT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                         graph::kruskal_msf(*w.g)));
      });
  EXPECT_EQ(skip, twin);
  EXPECT_GT(skip.messages, 0u);
}

TEST_P(FastPathSweep, BuildStCountersBitIdentical) {
  const auto [seed, kind] = GetParam();
  const auto [skip, twin] =
      both_paths(48, 160, seed, kind, [](World& w) {
        EXPECT_TRUE(core::build_st(*w.net, *w.forest).spanning);
      });
  EXPECT_EQ(skip, twin);
}

TEST_P(FastPathSweep, GhsCountersBitIdentical) {
  const auto [seed, kind] = GetParam();
  const auto [skip, twin] =
      both_paths(48, 160, seed, kind, [](World& w) {
        EXPECT_TRUE(baseline::ghs_build_mst(*w.net, *w.forest).spanning);
      });
  EXPECT_EQ(skip, twin);
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

}  // namespace
}  // namespace kkt::sim
