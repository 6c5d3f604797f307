// The fault-injection layer end-to-end (docs/FAULTS.md): typed FaultEvent
// schedules -- batched concurrent deletions, correlated regional outages,
// partition-and-heal -- replayed through core::MaintenanceSession on every
// delivery schedule. Links are reliable: fault events change the topology,
// never the transport.
//
// The determinism contract under test: the full sim::Metrics block --
// including dropped_deliveries -- must be bit-identical across reruns, and
// between the sync schedule ("fast") and the adversarial factory with its
// bounds fixed at one tick (test::unit_adversarial_net(), the "heap" side
// of the test names), for every fault model. Oracle checks
// run after every event, so every heal is verified to reconcile the forest
// with the centralized MSF.
//
// Carries the `fault` ctest label: the faults CI stage runs the whole
// suite.
#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "core/session.h"
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
// the sync schedule and on the adversarial one with every delay fixed at
// one tick.
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
