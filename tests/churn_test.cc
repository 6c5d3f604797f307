// The churn engine end-to-end: session-vs-oracle equivalence across
// delivery schedules, and SweepExecutor determinism across thread counts.
// (Suite runs under the `parallel` ctest label; the tsan preset targets it.)
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/build_mst.h"
#include "scenario/sweep.h"
#include "test_util.h"
#include "workload/churn.h"

namespace kkt::workload {
namespace {

using scenario::NetKind;
using scenario::Scenario;
using scenario::SweepExecutor;

Scenario churn_scenario(WorkloadKind kind, int ops, NetKind net,
                        std::uint64_t seed) {
  Scenario sc = test::gnm_scenario(24, 80, seed, net);
  sc.workload = WorkloadSpec::of(kind, ops);
  return sc;
}

// Theorem 1.2 end-to-end: after every single op of every workload, on every
// delivery schedule, the maintained forest equals the centralized oracle.
class ChurnSchedule
    : public ::testing::TestWithParam<std::tuple<NetKind, WorkloadKind>> {};

TEST_P(ChurnSchedule, SessionMatchesOracleAfterEveryOp) {
  const auto [net, kind] = GetParam();
  const ChurnResult res =
      run_churn(churn_scenario(kind, 40, net, 3), ChurnOptions{});
  EXPECT_EQ(res.oracle_failures, 0u);
  ASSERT_EQ(res.records.size(), res.trace.ops.size());
  for (const core::OpRecord& rec : res.records) {
    EXPECT_TRUE(rec.applied);
    EXPECT_TRUE(rec.oracle_ok);
  }
  EXPECT_GT(res.total.messages, 0u);
  EXPECT_EQ(res.messages.count, res.records.size());
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, ChurnSchedule,
    ::testing::Combine(::testing::Values(NetKind::kSync, NetKind::kAsync,
                                         NetKind::kAdversarial),
                       ::testing::Values(WorkloadKind::kUniform,
                                         WorkloadKind::kHotspot,
                                         WorkloadKind::kBridges,
                                         WorkloadKind::kGrowth)),
    [](const auto& info) {
      return std::string(scenario::net_kind_name(std::get<0>(info.param))) +
             "_" + workload_name(std::get<1>(info.param));
    });

TEST(Churn, StKindMaintainsSpanningForest) {
  ChurnOptions opt;
  opt.kind = core::ForestKind::kSt;
  const ChurnResult res = run_churn(
      churn_scenario(WorkloadKind::kUniform, 40, NetKind::kAsync, 5), opt);
  EXPECT_EQ(res.oracle_failures, 0u);
}

TEST(Churn, ReplayReproducesGeneratedRun) {
  const Scenario sc =
      churn_scenario(WorkloadKind::kHotspot, 30, NetKind::kSync, 9);
  const ChurnResult generated = run_churn(sc, ChurnOptions{});
  const ChurnResult replayed =
      run_churn(sc, ChurnOptions{}, &generated.trace);
  EXPECT_EQ(generated.total, replayed.total);
  EXPECT_EQ(generated.messages, replayed.messages);
  EXPECT_EQ(generated.bits, replayed.bits);
  EXPECT_EQ(trace_digest(generated.trace), trace_digest(replayed.trace));
}

// The forest store's from-scratch audit after every op of a long async
// churn: entries, peer mirrors and row order must survive every repair
// path (rejected and swapping inserts, deletions with and without a
// replacement search, reweighs), not just agree with the oracle at the end.
TEST(Churn, ForestStoreAuditsCleanAfterEveryOp) {
  Scenario sc = test::gnm_scenario(128, 512, 21, NetKind::kAsync);
  sc.premark_msf = true;
  scenario::World w = scenario::make_world(sc);
  const UpdateTrace trace = generate_trace(
      w.graph(), WorkloadSpec::of(WorkloadKind::kUniform, 300), 21);
  ASSERT_EQ(trace.ops.size(), 300u);
  core::SessionOptions options;
  options.check_oracle = true;
  core::MaintenanceSession session(w.graph(), w.trees(), w.network(),
                                   core::ForestKind::kMst, options);
  ASSERT_TRUE(w.trees().verify_state());
  for (std::size_t i = 0; i < trace.ops.size(); ++i) {
    ASSERT_TRUE(session.apply(trace.ops[i]).applied) << "op " << i;
    ASSERT_TRUE(w.trees().verify_state()) << "op " << i;
    ASSERT_TRUE(w.trees().properly_marked()) << "op " << i;
  }
  EXPECT_EQ(session.oracle_failures(), 0u);
}

TEST(SweepExecutorTest, ResultsLandInIndexOrder) {
  const SweepExecutor ex(8);
  const auto out = ex.map(33, [](int i) { return i * i; });
  ASSERT_EQ(out.size(), 33u);
  for (int i = 0; i < 33; ++i) EXPECT_EQ(out[static_cast<size_t>(i)], i * i);
  EXPECT_TRUE(ex.map(0, [](int i) { return i; }).empty());
}

TEST(SweepExecutorTest, PropagatesJobExceptions) {
  const SweepExecutor ex(4);
  EXPECT_THROW(ex.map(16,
                      [](int i) -> int {
                        if (i == 7) throw std::runtime_error("job 7");
                        return i;
                      }),
               std::runtime_error);
}

// The headline determinism claim: a fixed-seed sweep produces bit-identical
// aggregates at 1, 2 and 8 threads -- partition by seed, never by schedule.
TEST(SweepDeterminism, ChurnAggregatesBitIdenticalAcrossThreadCounts) {
  Scenario sc = test::gnm_scenario(32, 128, 0, NetKind::kAsync);
  sc.net_seed.reset();  // re-derive per sweep seed
  sc.workload = WorkloadSpec::of(WorkloadKind::kUniform, 24);

  ChurnOptions opt;
  opt.threads = 1;
  const ChurnSweepResult base = run_churn_sweep(sc, 100, 6, opt);
  EXPECT_EQ(base.oracle_failures, 0u);
  EXPECT_EQ(base.runs.size(), 6u);
  EXPECT_GT(base.ops, 0u);

  for (const int threads : {2, 8}) {
    ChurnOptions par = opt;
    par.threads = threads;
    const ChurnSweepResult got = run_churn_sweep(sc, 100, 6, par);
    EXPECT_EQ(got.total, base.total) << threads << " threads";
    EXPECT_EQ(got.ops, base.ops);
    EXPECT_EQ(got.oracle_failures, base.oracle_failures);
    EXPECT_EQ(got.messages, base.messages) << threads << " threads";
    EXPECT_EQ(got.bits, base.bits);
    EXPECT_EQ(got.rounds, base.rounds);
    ASSERT_EQ(got.runs.size(), base.runs.size());
    for (std::size_t i = 0; i < got.runs.size(); ++i) {
      EXPECT_EQ(got.runs[i].total, base.runs[i].total) << "run " << i;
      EXPECT_EQ(trace_digest(got.runs[i].trace),
                trace_digest(base.runs[i].trace));
    }
  }
}

TEST(SweepDeterminism, RunSweepMetricsBitIdenticalAcrossThreadCounts) {
  Scenario sc = test::gnm_scenario(32, 160, 0, NetKind::kSync);
  sc.net_seed.reset();
  const auto body = [](scenario::World& w) {
    core::build_mst(w.network(), w.trees());
  };
  const auto base = scenario::run_sweep(sc, 50, 6, body, 1);
  for (const int threads : {2, 8}) {
    const auto got = scenario::run_sweep(sc, 50, 6, body, threads);
    ASSERT_EQ(got.size(), base.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], base[i]) << "seed slot " << i << ", " << threads
                                 << " threads";
    }
  }
}

}  // namespace
}  // namespace kkt::workload
