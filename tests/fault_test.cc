// The fault-injection layer end-to-end (docs/FAULTS.md): typed FaultEvent
// schedules -- batched concurrent deletions, correlated regional outages,
// partition-and-heal -- replayed through core::MaintenanceSession on every
// delivery schedule, plus the transport-level faults (seeded message loss,
// burst outages, LinkState link-down overlays) on sim::Network.
//
// The determinism contract under test: the full sim::Metrics block --
// including dropped_deliveries -- must be bit-identical across reruns, and
// between SyncNetwork's unit-delay skip ("fast") and the same schedule
// asked of the policy on every send (test::unit_adversarial_net(), the
// "heap" side of the test names), for every fault model. Oracle checks
// run after every event, so every heal is verified to reconcile the forest
// with the centralized MSF.
//
// Carries the `fault` ctest label: the faults CI stage runs the whole
// suite.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "baseline/flood_st.h"
#include "baseline/ghs.h"
#include "core/build_mst.h"
#include "core/session.h"
#include "graph/mst_oracle.h"
#include "sim/adversarial_network.h"
#include "sim/sync_network.h"
#include "test_util.h"
#include "workload/faults.h"

namespace kkt::workload {
namespace {

using scenario::NetKind;
using test::World;

FaultSpec spec_for(FaultModel model) {
  FaultSpec spec;
  spec.model = model;
  switch (model) {
    case FaultModel::kBatch:
      spec.events = 3;
      spec.batch_k = 4;
      break;
    case FaultModel::kRegional:
      spec.events = 2;
      spec.region_fraction = 0.15;
      break;
    case FaultModel::kPartition:
      spec.events = 2;
      spec.churn_ops = 3;
      break;
  }
  return spec;
}

struct ReplayOutcome {
  sim::Metrics metrics;            // whole-schedule network cost
  std::vector<FaultRecord> records;
  std::size_t oracle_failures = 0;
  bool every_heal_clean = true;    // oracle_ok on every kHeal record
};

// Generates the model's schedule against the world's starting graph and
// replays it through a fresh MaintenanceSession with oracle checks on.
ReplayOutcome replay(FaultModel model, const scenario::NetSpec& net,
                     std::uint64_t seed) {
  World w = test::make_gnm_world(32, 96, seed, net);
  const FaultTrace trace = generate_faults(
      *w.g, spec_for(model), util::mix_seeds(seed, kFaultSeedSalt));
  test::mark_msf(w);
  core::SessionOptions opt;
  opt.check_oracle = true;
  core::MaintenanceSession session(*w.g, *w.forest, *w.net,
                                   core::ForestKind::kMst, opt);
  ReplayOutcome out;
  for (const FaultEvent& e : trace.events) {
    const FaultRecord rec = apply_fault(session, e);
    if (e.kind == FaultKind::kHeal && !rec.oracle_ok) {
      out.every_heal_clean = false;
    }
    out.records.push_back(rec);
  }
  out.metrics = w.net->metrics();
  out.oracle_failures = session.oracle_failures();
  return out;
}

std::string model_name(FaultModel m) { return fault_model_name(m); }

// ---------------------------------------------------------------------------
// The fault matrix: every model x every delivery schedule x three seeds.
// Each cell replays its schedule twice and demands a bit-identical Metrics
// block (dropped_deliveries included) plus an oracle-clean forest after
// every event -- heals in particular.
// ---------------------------------------------------------------------------

class FaultMatrix : public ::testing::TestWithParam<
                        std::tuple<FaultModel, NetKind, std::uint64_t>> {};

TEST_P(FaultMatrix, ReplayIsBitDeterministicAndOracleClean) {
  const auto [model, net, seed] = GetParam();
  scenario::NetSpec spec;
  spec.kind = net;
  const ReplayOutcome first = replay(model, spec, seed);
  const ReplayOutcome again = replay(model, spec, seed);

  EXPECT_EQ(first.metrics, again.metrics);
  EXPECT_EQ(first.metrics.dropped_deliveries,
            again.metrics.dropped_deliveries);
  EXPECT_GT(first.metrics.messages, 0u);
  EXPECT_EQ(first.oracle_failures, 0u);
  EXPECT_TRUE(first.every_heal_clean);
  ASSERT_EQ(first.records.size(), again.records.size());
  for (std::size_t i = 0; i < first.records.size(); ++i) {
    EXPECT_EQ(first.records[i].cost, again.records[i].cost) << "event " << i;
    EXPECT_EQ(first.records[i].applied, again.records[i].applied);
    EXPECT_EQ(first.records[i].components_after,
              again.records[i].components_after);
  }
}

INSTANTIATE_TEST_SUITE_P(
    ModelsSchedulesSeeds, FaultMatrix,
    ::testing::Combine(::testing::Values(FaultModel::kBatch,
                                         FaultModel::kRegional,
                                         FaultModel::kPartition),
                       ::testing::Values(NetKind::kSync, NetKind::kAsync,
                                         NetKind::kAdversarial),
                       ::testing::Values(1u, 7u, 1234u)),
    [](const auto& info) {
      return model_name(std::get<0>(info.param)) + "_" +
             scenario::net_kind_name(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

// ---------------------------------------------------------------------------
// Delivery-path invariance: the whole fault replay -- batch repairs,
// partition churn, heal reconciliation -- must cost exactly the same on
// SyncNetwork and on the unit-delay AdversarialNetwork, which asks its
// policy on every send.
// ---------------------------------------------------------------------------

class FaultPathSweep : public ::testing::TestWithParam<
                           std::tuple<FaultModel, std::uint64_t>> {};

TEST_P(FaultPathSweep, MetricsBitIdenticalOnFastAndHeapPaths) {
  const auto [model, seed] = GetParam();
  const ReplayOutcome fast =
      replay(model, scenario::NetSpec::sync(), seed);
  const ReplayOutcome per_send =
      replay(model, test::unit_adversarial_net(), seed);
  EXPECT_EQ(fast.metrics, per_send.metrics);
}

INSTANTIATE_TEST_SUITE_P(
    ModelsSeeds, FaultPathSweep,
    ::testing::Combine(::testing::Values(FaultModel::kBatch,
                                         FaultModel::kRegional,
                                         FaultModel::kPartition),
                       ::testing::Values(1u, 7u, 1234u)),
    [](const auto& info) {
      return model_name(std::get<0>(info.param)) + "_s" +
             std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Partition detection and heal-time reconciliation.
// ---------------------------------------------------------------------------

TEST(Partition, CutRaisesComponentsAndHealRestoresThem) {
  const ReplayOutcome out =
      replay(FaultModel::kPartition, scenario::NetSpec::sync(), 5);
  bool saw_cut = false, saw_heal = false;
  std::size_t baseline_components = 0;
  for (const FaultRecord& rec : out.records) {
    if (rec.kind == FaultKind::kPartitionCut) {
      saw_cut = true;
      baseline_components = rec.components_before;
      // Severing every crossing edge of a balanced separator must actually
      // split the forest: that is the partition detector firing.
      EXPECT_GT(rec.components_after, rec.components_before);
    }
    if (rec.kind == FaultKind::kHeal) {
      saw_heal = true;
      EXPECT_EQ(rec.components_after, baseline_components);
      EXPECT_TRUE(rec.oracle_ok);
    }
  }
  EXPECT_TRUE(saw_cut);
  EXPECT_TRUE(saw_heal);
  EXPECT_EQ(out.oracle_failures, 0u);
}

TEST(Partition, DamageEventsAggregateBatchOutcome) {
  const ReplayOutcome out =
      replay(FaultModel::kBatch, scenario::NetSpec::sync(), 11);
  for (const FaultRecord& rec : out.records) {
    if (rec.kind != FaultKind::kBatchDelete) continue;
    EXPECT_GT(rec.requested, 0u);
    EXPECT_EQ(rec.applied, rec.requested);  // generator ops are always valid
    // A batch that removed tree edges must have run repair phases.
    if (rec.tree_edges_removed > 0) {
      EXPECT_GT(rec.phases, 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Transport loss: seeded drops, burst outages, per-edge overrides -- and
// the loss_safe() degrade.
// ---------------------------------------------------------------------------

// Two nodes exchanging `hops` messages; counts what actually arrived.
class Chatter : public sim::Protocol {
 public:
  Chatter(graph::NodeId a, graph::NodeId b, int hops)
      : a_(a), b_(b), hops_(hops) {}

  void on_start(sim::Network& net, graph::NodeId self) override {
    if (hops_ > 0) {
      net.send(self, self == a_ ? b_ : a_, sim::Message(sim::Tag::kNone));
    }
  }
  void on_message(sim::Network& net, graph::NodeId self, graph::NodeId from,
                  const sim::Message&) override {
    ++received_;
    if (received_ < hops_) net.send(self, from, sim::Message(sim::Tag::kNone));
  }

  int received() const { return received_; }

 private:
  graph::NodeId a_, b_;
  int hops_;
  int received_ = 0;
};

// Chatter that opts out of policy loss, like the interlocked core protocols.
class FragileChatter final : public Chatter {
 public:
  using Chatter::Chatter;
  bool loss_safe() const override { return false; }
};

std::unique_ptr<graph::Graph> pair_graph(std::uint64_t seed) {
  util::Rng rng(seed);
  auto g = std::make_unique<graph::Graph>(2, rng);
  g->add_edge(0, 1, 1);
  return g;
}

// GhsSearch declares loss_safe() == false: its Test -> Accept/Reject
// handshake deadlocks if a reply vanishes. Under a lossy adversarial spec
// the network must degrade loss to plain delay -- bit-identical metrics to
// the lossless run, zero drops, and the degrade counted.
TEST(LossDegrade, GhsUnderLossyScheduleMatchesLosslessBitForBit) {
  // Unit delays, no reordering: GHS assumes FIFO-ish channels, and the
  // point here is the loss knob, not the delay shape.
  sim::AdversarialConfig clean;
  clean.min_delay = 1;
  clean.max_delay = 1;
  clean.reorder_window = 0;
  sim::AdversarialConfig lossy = clean;
  lossy.loss_num = 1;
  lossy.loss_den = 4;

  sim::Metrics metrics[2];
  std::uint64_t degrades[2] = {0, 0};
  for (int i = 0; i < 2; ++i) {
    World w = test::make_gnm_world(24, 72, 3, NetKind::kSync);
    sim::AdversarialNetwork net(*w.g, 77, i == 0 ? clean : lossy);
    EXPECT_TRUE(baseline::ghs_build_mst(net, *w.forest).spanning);
    EXPECT_TRUE(graph::same_edge_set(w.forest->marked_edges(),
                                     graph::kruskal_msf(*w.g)));
    metrics[i] = net.metrics();
    degrades[i] = net.loss_degrades();
  }
  // The loss stream is separate from the delay stream, so degrading it
  // leaves the schedule -- and the whole Metrics block -- untouched.
  EXPECT_EQ(metrics[0], metrics[1]);
  EXPECT_EQ(metrics[1].dropped_deliveries, 0u);
  EXPECT_EQ(degrades[0], 0u);
  EXPECT_GT(degrades[1], 0u);  // one count per degraded run() inside GHS
}

// Loss-safe protocols (the default) really do lose messages, and the drop
// count is exactly reproducible.
TEST(Loss, SeededDropsAreCountedAndReproducible) {
  sim::AdversarialConfig cfg;
  cfg.loss_num = 1;
  cfg.loss_den = 3;
  std::uint64_t dropped[2];
  int received[2];
  for (int i = 0; i < 2; ++i) {
    auto g = pair_graph(1);
    sim::AdversarialNetwork net(*g, 42, cfg);
    Chatter proto(0, 1, 200);
    const graph::NodeId participants[] = {0};
    net.run(proto, participants);
    dropped[i] = net.metrics().dropped_deliveries;
    received[i] = proto.received();
    // Every send is either delivered or counted dropped; nothing vanishes
    // silently (the PR's bugfix contract). Duplicates are deliveries of
    // already-counted sends, so they stay out of the balance.
    EXPECT_EQ(net.metrics().messages,
              static_cast<std::uint64_t>(proto.received()) +
                  net.metrics().dropped_deliveries);
  }
  // The ping-pong chain ends exactly when its first message is dropped.
  EXPECT_EQ(dropped[0], 1u);
  EXPECT_EQ(dropped[0], dropped[1]);
  EXPECT_EQ(received[0], received[1]);
}

// A permanent blackout window (len >= period) drops every message without
// consuming a single random draw.
TEST(Loss, BurstWindowIsDeterministicBlackout) {
  sim::AdversarialConfig cfg;
  cfg.min_delay = 1;
  cfg.max_delay = 1;
  cfg.reorder_window = 0;
  cfg.loss_burst_start = 0;
  cfg.loss_burst_len = 2;
  cfg.loss_burst_period = 1;  // window covers all of virtual time
  auto g = pair_graph(2);
  sim::AdversarialNetwork net(*g, 7, cfg);
  Chatter proto(0, 1, 50);
  const graph::NodeId participants[] = {0};
  net.run(proto, participants);
  // The opening send is dropped; nothing is ever delivered.
  EXPECT_EQ(proto.received(), 0);
  EXPECT_EQ(net.metrics().messages, 1u);
  EXPECT_EQ(net.metrics().dropped_deliveries, 1u);
}

TEST(Loss, BurstWindowAlternatesWithPhase) {
  sim::AdversarialConfig cfg;
  cfg.min_delay = 1;
  cfg.max_delay = 1;
  cfg.reorder_window = 0;
  cfg.loss_burst_start = 10;
  cfg.loss_burst_len = 4;
  cfg.loss_burst_period = 8;
  auto g = pair_graph(3);
  sim::AdversarialNetwork net(*g, 9, cfg);
  Chatter proto(0, 1, 400);
  const graph::NodeId participants[] = {0};
  net.run(proto, participants);
  // The exchange runs freely until the first window opens at t = 10, then
  // the chain's next send falls into it and dies -- pure clock arithmetic.
  EXPECT_EQ(net.metrics().dropped_deliveries, 1u);
  EXPECT_GT(proto.received(), 0);
  EXPECT_LT(proto.received(), 20);
}

TEST(Loss, PerEdgeOverrideExemptsAndCondemns) {
  // Default rate 0, edge {0,1} overridden to always drop.
  auto g = pair_graph(4);
  sim::AdversarialNetwork always(*g, 5);
  always.adversary().set_edge_loss(0, 1, 1, 1);
  Chatter proto(0, 1, 10);
  const graph::NodeId participants[] = {0};
  always.run(proto, participants);
  EXPECT_EQ(proto.received(), 0);
  EXPECT_EQ(always.metrics().dropped_deliveries, 1u);  // the opening send

  // Default rate 1/1, edge {0,1} exempted with a 0/1 override.
  sim::AdversarialConfig all_lossy;
  all_lossy.loss_num = 1;
  all_lossy.loss_den = 1;
  auto g2 = pair_graph(5);
  sim::AdversarialNetwork exempt(*g2, 5, all_lossy);
  exempt.adversary().set_edge_loss(0, 1, 0, 1);
  Chatter proto2(0, 1, 10);
  exempt.run(proto2, participants);
  EXPECT_EQ(proto2.received(), 10);
  EXPECT_EQ(exempt.metrics().dropped_deliveries, 0u);
}

TEST(Loss, UnconfiguredPolicyIsNotLossy) {
  sim::AdversarialPolicy clean(1);
  EXPECT_FALSE(clean.lossy());
  sim::AdversarialConfig cfg;
  cfg.loss_num = 1;
  cfg.loss_den = 8;
  sim::AdversarialPolicy lossy(1, cfg);
  EXPECT_TRUE(lossy.lossy());
  // A burst spec alone is lossy too.
  sim::AdversarialConfig burst;
  burst.loss_burst_len = 2;
  burst.loss_burst_period = 4;
  EXPECT_TRUE(sim::AdversarialPolicy(1, burst).lossy());
  // len without period (or vice versa) is not a configured burst.
  sim::AdversarialConfig half;
  half.loss_burst_len = 2;
  EXPECT_FALSE(sim::AdversarialPolicy(1, half).lossy());
}

// Loss under a full maintenance session: the KKT repair path is loss-safe
// by default, so drops really happen and the whole run stays reproducible.
TEST(Loss, MaintenanceSessionUnderLossIsReproducible) {
  sim::Metrics runs[2];
  for (int i = 0; i < 2; ++i) {
    World w = test::make_gnm_world(24, 72, 9, NetKind::kSync);
    sim::AdversarialConfig cfg;
    cfg.loss_num = 1;
    cfg.loss_den = 16;
    sim::AdversarialNetwork net(*w.g, 13, cfg);
    const FaultTrace trace = generate_faults(
        *w.g, spec_for(FaultModel::kBatch), util::mix_seeds(9, kFaultSeedSalt));
    test::mark_msf(w);
    core::MaintenanceSession session(*w.g, *w.forest, net,
                                     core::ForestKind::kMst);
    for (const FaultEvent& e : trace.events) apply_fault(session, e);
    runs[i] = net.metrics();
  }
  EXPECT_EQ(runs[0], runs[1]);
  EXPECT_GT(runs[0].messages, 0u);
}

// ---------------------------------------------------------------------------
// LinkState: the hard link-down overlay. Down links drop under every
// delivery policy, for every protocol, loss-safe or not, and the drops land
// in dropped_deliveries.
// ---------------------------------------------------------------------------

TEST(LinkOverlay, SetDownIsIdempotentAndHealRestores) {
  sim::LinkState links;
  EXPECT_EQ(links.down_count(), 0u);
  EXPECT_FALSE(links.is_down(3, 7));
  links.set_down(7, 3);  // order-insensitive key
  links.set_down(3, 7);  // idempotent
  EXPECT_EQ(links.down_count(), 1u);
  EXPECT_TRUE(links.is_down(3, 7));
  EXPECT_TRUE(links.is_down(7, 3));
  EXPECT_FALSE(links.is_down(3, 8));
  links.set_down(1, 2);
  EXPECT_EQ(links.down_count(), 2u);
  links.set_up(3, 7);
  EXPECT_FALSE(links.is_down(7, 3));
  links.set_up(3, 7);  // idempotent no-op
  links.all_up();
  EXPECT_EQ(links.down_count(), 0u);
}

TEST(LinkOverlay, DownLinkDropsExactlyThePinnedCount) {
  auto g = pair_graph(6);
  sim::SyncNetwork net(*g, 7);
  net.set_link_down(0, 1);
  Chatter proto(0, 1, 5);
  const graph::NodeId participants[] = {0};
  net.run(proto, participants);
  // The opening send crosses the down link and dies; the exchange never
  // starts. messages counts the send (the protocol paid for it).
  EXPECT_EQ(proto.received(), 0);
  EXPECT_EQ(net.metrics().messages, 1u);
  EXPECT_EQ(net.metrics().dropped_deliveries, 1u);

  net.heal_all_links();
  Chatter again(0, 1, 5);
  net.run(again, participants);
  EXPECT_EQ(again.received(), 5);
  EXPECT_EQ(net.metrics().dropped_deliveries, 1u);  // no new drops
}

TEST(LinkOverlay, DropsApplyToNonLossSafeProtocolsToo) {
  // A loss_safe()==false protocol is exempt from *policy* loss (it degrades
  // to delay) but not from LinkState: a down link is a topology-level fault,
  // not a schedule. Configure both on the same run and check that the policy
  // half degrades while the overlay half still drops every delivery.
  auto g = pair_graph(11);
  sim::AdversarialConfig cfg;
  cfg.min_delay = 1;
  cfg.max_delay = 1;
  cfg.reorder_window = 0;
  cfg.loss_num = 1;
  cfg.loss_den = 2;
  sim::AdversarialNetwork net(*g, 21, cfg);
  net.set_link_down(0, 1);
  FragileChatter chat(0, 1, 6);
  const graph::NodeId participants[] = {0};
  net.run(chat, participants);
  EXPECT_EQ(chat.received(), 0);
  EXPECT_EQ(net.metrics().messages, 1u);
  EXPECT_EQ(net.metrics().dropped_deliveries, 1u);
  EXPECT_GT(net.loss_degrades(), 0u);  // policy loss was degraded away
}

TEST(LinkOverlay, DropsBitIdenticalOnFastAndHeapPaths) {
  // Flooding touches every edge, so the down links are guaranteed to eat
  // deliveries on both networks; flooding also tolerates the holes (the tree
  // just grows around them).
  const auto run_with = [](const scenario::NetSpec& net) {
    World w = test::make_gnm_world(48, 160, 5, net);
    const auto alive = w.g->alive_edge_indices();
    const graph::Edge& a = w.g->edge(alive[alive.size() / 2]);
    const graph::Edge& b = w.g->edge(alive[alive.size() / 3]);
    w.net->set_link_down(a.u, a.v);
    w.net->set_link_down(b.u, b.v);
    baseline::flood_build_st(*w.net, *w.forest);
    return w.net->metrics();
  };
  const sim::Metrics base = run_with(scenario::NetSpec::sync());
  EXPECT_GT(base.dropped_deliveries, 0u);
  EXPECT_EQ(base, run_with(test::unit_adversarial_net()));
}

// ---------------------------------------------------------------------------
// Randomized soak: every model in sequence on one long-lived session, all
// three schedules, oracle-checked throughout; the asan preset runs it with
// full heap checking.
// ---------------------------------------------------------------------------

class FaultSoak : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FaultSoak, MixedModelsStayOracleCleanOnEverySchedule) {
  const std::uint64_t seed = GetParam();
  for (const NetKind net :
       {NetKind::kSync, NetKind::kAsync, NetKind::kAdversarial}) {
    World w = test::make_gnm_world(40, 140, seed, net);
    test::mark_msf(w);
    core::SessionOptions opt;
    opt.check_oracle = true;
    opt.keep_log = false;
    core::MaintenanceSession session(*w.g, *w.forest, *w.net,
                                     core::ForestKind::kMst, opt);
    std::uint64_t fault_seed = util::mix_seeds(seed, kFaultSeedSalt);
    for (const FaultModel model :
         {FaultModel::kBatch, FaultModel::kRegional, FaultModel::kPartition}) {
      // Each model's schedule is generated against the *current* graph so
      // the stream stays valid as damage and heals accumulate.
      const FaultTrace trace =
          generate_faults(*w.g, spec_for(model), ++fault_seed);
      for (const FaultEvent& e : trace.events) {
        const FaultRecord rec = apply_fault(session, e);
        EXPECT_TRUE(rec.oracle_ok)
            << scenario::net_kind_name(net) << "/" << model_name(model);
      }
    }
    EXPECT_EQ(session.oracle_failures(), 0u)
        << scenario::net_kind_name(net);
    EXPECT_TRUE(session.oracle_consistent());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FaultSoak,
                         ::testing::Values(1u, 7u, 1234u));

}  // namespace
}  // namespace kkt::workload
