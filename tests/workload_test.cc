// The workload layer: trace value type, text record/replay, seeded
// generators, and the MaintenanceSession they drive.
#include <gtest/gtest.h>

#include <numeric>
#include <sstream>

#include "core/session.h"
#include "test_util.h"
#include "workload/faults.h"
#include "workload/generators.h"
#include "workload/stats.h"
#include "workload/trace.h"

namespace kkt::workload {
namespace {

using core::MaintenanceSession;
using core::OpKind;
using core::UpdateOp;
using test::make_gnm_world;
using test::World;

TEST(Names, OpKindRoundTrip) {
  for (int k = 0; k < core::kOpKindCount; ++k) {
    const auto kind = static_cast<OpKind>(k);
    const auto back = core::op_kind_from_name(core::op_kind_name(kind));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(core::op_kind_from_name("frobnicate").has_value());
}

TEST(Names, RepairActionRoundTrip) {
  for (int a = 0; a < static_cast<int>(core::RepairAction::kActionCount);
       ++a) {
    const auto action = static_cast<core::RepairAction>(a);
    const auto back = core::action_from_name(core::action_name(action));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, action);
  }
  EXPECT_FALSE(core::action_from_name("exploded").has_value());
}

TEST(Names, WorkloadKindRoundTrip) {
  for (int k = 0; k < kWorkloadKindCount; ++k) {
    const auto kind = static_cast<WorkloadKind>(k);
    const auto back = workload_from_name(workload_name(kind));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(workload_from_name("lazy").has_value());
}

TEST(MetricsDelta, SubtractsCountersKeepsHighWater) {
  sim::Metrics before;
  before.messages = 10;
  before.message_bits = 640;
  before.rounds = 4;
  before.broadcast_echoes = 2;
  before.peak_node_state_bits = 100;
  before.per_tag[0] = 7;
  before.per_tag_bits[0] = 448;

  sim::Metrics after = before;
  after.messages = 25;
  after.message_bits = 1600;
  after.rounds = 9;
  after.broadcast_echoes = 5;
  after.peak_node_state_bits = 130;
  after.per_tag[0] = 19;
  after.per_tag_bits[0] = 1216;

  const sim::Metrics d = after - before;
  EXPECT_EQ(d.messages, 15u);
  EXPECT_EQ(d.message_bits, 960u);
  EXPECT_EQ(d.rounds, 5u);
  EXPECT_EQ(d.broadcast_echoes, 3u);
  EXPECT_EQ(d.peak_node_state_bits, 130u);  // high-water mark, not a counter
  EXPECT_EQ(d.per_tag[0], 12u);
  EXPECT_EQ(d.per_tag_bits[0], 768u);

  // delta + before restores the counters (peak is a max, also restored).
  sim::Metrics sum = before;
  sum += d;
  EXPECT_EQ(sum, after);
}

TEST(CostStatsTest, AggregateOrderStatistics) {
  std::vector<std::uint64_t> samples;
  for (std::uint64_t i = 100; i >= 1; --i) samples.push_back(i);
  const CostStats s = aggregate(samples);
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.min, 1u);
  EXPECT_EQ(s.max, 100u);
  EXPECT_EQ(s.p50, 50u);
  EXPECT_EQ(s.p99, 99u);
  EXPECT_EQ(s.total, 5050u);
  EXPECT_DOUBLE_EQ(s.mean, 50.5);

  EXPECT_EQ(aggregate({}).count, 0u);
  const CostStats one = aggregate({42});
  EXPECT_EQ(one.p50, 42u);
  EXPECT_EQ(one.p99, 42u);
}

TEST(Trace, TextRoundTrip) {
  UpdateTrace t;
  t.name = "uniform";
  t.seed = 77;
  t.ops = {UpdateOp::insert(0, 5, 123), UpdateOp::erase(3, 4),
           UpdateOp::reweigh(1, 2, 99)};

  std::stringstream ss;
  write_trace(ss, t);
  std::string error;
  const auto back = read_trace(ss, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->name, t.name);
  EXPECT_EQ(back->seed, t.seed);
  EXPECT_EQ(back->ops, t.ops);
  EXPECT_EQ(trace_digest(*back), trace_digest(t));
}

TEST(Trace, RejectsMalformedInput) {
  const auto reject = [](const char* text) {
    std::istringstream is(text);
    std::string error;
    EXPECT_FALSE(read_trace(is, &error).has_value()) << text;
    EXPECT_FALSE(error.empty());
  };
  reject("");                            // no header
  reject("+ 0 1 5\n");                   // op before header
  reject("t x 1 2\n+ 0 1 5\n");          // count mismatch
  reject("t x 1 1\nz 0 1\n");            // unknown record
  reject("t x 1 1\n+ 0 0 5\n");          // self loop
  reject("t x 1 1\n+ 0 1 0\n");          // zero weight
  reject("t x 1 1\nt y 2 1\n+ 0 1 5\n"); // duplicate header
  reject("t x 1 1\nF batch 1\n- 0 1\n"); // fault event
}

TEST(FaultTraceIo, TextRoundTrip) {
  FaultTrace t;
  t.name = "mixed";
  t.seed = 41;
  t.events.push_back(FaultEvent::op(UpdateOp::insert(0, 5, 123)));
  t.events.push_back(
      FaultEvent{FaultKind::kBatchDelete,
                 {UpdateOp::erase(1, 2), UpdateOp::erase(3, 4)}});
  t.events.push_back(FaultEvent{FaultKind::kRegional, {UpdateOp::erase(5, 6)}});
  t.events.push_back(
      FaultEvent{FaultKind::kPartitionCut, {UpdateOp::erase(7, 8)}});
  t.events.push_back(FaultEvent::op(UpdateOp::reweigh(0, 5, 9)));
  t.events.push_back(
      FaultEvent{FaultKind::kHeal,
                 {UpdateOp::insert(7, 8, 3), UpdateOp::insert(5, 6, 4)}});

  std::stringstream ss;
  write_fault_trace(ss, t);
  std::string error;
  const auto back = read_fault_trace(ss, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->name, t.name);
  EXPECT_EQ(back->seed, t.seed);
  ASSERT_EQ(back->events.size(), t.events.size());
  for (std::size_t i = 0; i < t.events.size(); ++i) {
    EXPECT_EQ(back->events[i].kind, t.events[i].kind) << i;
    EXPECT_EQ(back->events[i].members, t.events[i].members) << i;
  }
  EXPECT_EQ(fault_trace_digest(*back), fault_trace_digest(t));
}

// A fault trace holding only kOp events is byte-compatible with the plain
// update-trace format -- both readers accept it and agree on the ops.
TEST(FaultTraceIo, OpOnlyTraceIsUpdateTraceCompatible) {
  FaultTrace ft;
  ft.name = "plain";
  ft.seed = 9;
  ft.events.push_back(FaultEvent::op(UpdateOp::insert(0, 1, 7)));
  ft.events.push_back(FaultEvent::op(UpdateOp::erase(2, 3)));

  std::stringstream ss;
  write_fault_trace(ss, ft);
  const std::string text = ss.str();

  std::istringstream as_update(text);
  std::string error;
  const auto ut = read_trace(as_update, &error);
  ASSERT_TRUE(ut.has_value()) << error;
  ASSERT_EQ(ut->ops.size(), 2u);
  EXPECT_EQ(ut->ops[0], ft.events[0].members.front());
  EXPECT_EQ(ut->ops[1], ft.events[1].members.front());

  std::istringstream as_fault(text);
  const auto back = read_fault_trace(as_fault, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(fault_trace_digest(*back), fault_trace_digest(ft));
}

TEST(FaultTraceIo, RejectsMalformedInput) {
  const auto reject = [](const char* text) {
    std::istringstream is(text);
    std::string error;
    EXPECT_FALSE(read_fault_trace(is, &error).has_value()) << text;
    EXPECT_FALSE(error.empty()) << text;
  };
  reject("");                                        // no header
  reject("F batch 1\n- 0 1\n");                      // F before header
  reject("t x 1 1\nF melt 1\n- 0 1\n");              // unknown fault kind
  reject("t x 1 1\nF op 1\n+ 0 1 5\n");              // op spelled as F record
  reject("t x 1 1\nF batch 0\n");                    // empty fault event
  reject("t x 1 1\nF batch\n");                      // malformed fault event
  reject("t x 1 1\nF batch 2\n- 0 1\n");             // unterminated at EOF
  reject("t x 1 2\nF batch 2\n- 0 1\nF cut 1\n- 2 3\n");  // unterminated
  reject("t x 1 1\nF batch 1\n+ 0 1 5\n");           // insert inside batch
  reject("t x 1 1\nF heal 1\n- 0 1\n");              // delete inside heal
  reject("t x 1 2\nF batch 1\n- 0 1\n");             // event count mismatch
  reject("t x 1 1\nt y 2 1\n- 0 1\n");               // duplicate header
  reject("t x 1 1\nz 0 1\n");                        // unknown record
  reject("t x 1 1\nF batch 1\n- 0 0\n");             // self-loop member
  reject("t x 1 1\nF heal 1\n+ 0 1 0\n");            // zero-weight member
}

TEST(FaultTraceIo, GeneratedTracesRoundTripAllModels) {
  World w = make_gnm_world(32, 96, 6);
  for (int m = 0; m < kFaultModelCount; ++m) {
    FaultSpec spec;
    spec.model = static_cast<FaultModel>(m);
    spec.events = 3;
    const FaultTrace t = generate_faults(*w.g, spec, 123);
    EXPECT_EQ(t.name, fault_model_name(spec.model));
    std::stringstream ss;
    write_fault_trace(ss, t);
    std::string error;
    const auto back = read_fault_trace(ss, &error);
    ASSERT_TRUE(back.has_value()) << fault_model_name(spec.model) << ": "
                                  << error;
    EXPECT_EQ(fault_trace_digest(*back), fault_trace_digest(t))
        << fault_model_name(spec.model);
  }
}

// Pinned like Generator.GoldenTraceDigests: fault generators are replay
// artifacts, so their RNG streams must not drift across refactors.
TEST(FaultTraceIo, GoldenFaultDigests) {
  World w = make_gnm_world(32, 128, 2015);
  const std::uint64_t seed = util::mix_seeds(2015, kFaultSeedSalt);
  const auto digest_of = [&](FaultModel model) {
    FaultSpec spec;
    spec.model = model;
    return fault_trace_digest(generate_faults(*w.g, spec, seed));
  };
  EXPECT_EQ(digest_of(FaultModel::kBatch), 0x138bfcc719991a0fULL);
  EXPECT_EQ(digest_of(FaultModel::kRegional), 0x7caa8ec9c3f7bc09ULL);
  EXPECT_EQ(digest_of(FaultModel::kPartition), 0xe423835ef21f05abULL);
}

TEST(FaultTraceIo, DigestDiscriminates) {
  FaultTrace a;
  a.events.push_back(FaultEvent{FaultKind::kBatchDelete,
                                {UpdateOp::erase(0, 1)}});
  FaultTrace b = a;
  b.events[0].kind = FaultKind::kRegional;
  FaultTrace c = a;
  c.events[0].members.push_back(UpdateOp::erase(2, 3));
  EXPECT_NE(fault_trace_digest(a), fault_trace_digest(b));
  EXPECT_NE(fault_trace_digest(a), fault_trace_digest(c));
}

TEST(Trace, DigestDiscriminates) {
  UpdateTrace a;
  a.ops = {UpdateOp::insert(0, 1, 5)};
  UpdateTrace b = a;
  b.ops[0].weight = 6;
  UpdateTrace c = a;
  c.ops[0].kind = OpKind::kWeightChange;
  EXPECT_NE(trace_digest(a), trace_digest(b));
  EXPECT_NE(trace_digest(a), trace_digest(c));
  EXPECT_NE(trace_digest(b), trace_digest(c));
}

// Golden digests: the fixed-seed generator output is a pinned artifact. A
// change here means the generator's RNG stream drifted -- recorded traces
// and every fixed-seed churn counter in EXPERIMENTS.md drift with it.
TEST(Generator, GoldenTraceDigests) {
  World w = make_gnm_world(32, 128, 2015);
  const std::uint64_t seed = util::mix_seeds(2015, 0xc4a4);
  const auto digest_of = [&](WorkloadKind kind) {
    const UpdateTrace t =
        generate_trace(*w.g, WorkloadSpec::of(kind, 48), seed);
    EXPECT_EQ(t.ops.size(), 48u);
    EXPECT_EQ(t.name, workload_name(kind));
    return trace_digest(t);
  };
  EXPECT_EQ(digest_of(WorkloadKind::kUniform), 0x31991f1ad7b2dab0ULL);
  EXPECT_EQ(digest_of(WorkloadKind::kHotspot), 0x394b244995003733ULL);
  EXPECT_EQ(digest_of(WorkloadKind::kBridges), 0xadb067926fc48c4aULL);
  EXPECT_EQ(digest_of(WorkloadKind::kGrowth), 0x9600bb6280f06b2dULL);
}

TEST(Generator, DeterministicAndSeedSensitive) {
  World w = make_gnm_world(24, 96, 7);
  const WorkloadSpec spec = WorkloadSpec::of(WorkloadKind::kUniform, 32);
  const UpdateTrace a = generate_trace(*w.g, spec, 11);
  const UpdateTrace b = generate_trace(*w.g, spec, 11);
  const UpdateTrace c = generate_trace(*w.g, spec, 12);
  EXPECT_EQ(a.ops, b.ops);
  EXPECT_NE(trace_digest(a), trace_digest(c));
}

// Every generated op must resolve against the real graph when replayed in
// order: the generator's model evolution mirrors the session's.
TEST(Generator, TracesReplayWithoutDrift) {
  for (int k = 0; k < kWorkloadKindCount; ++k) {
    const auto kind = static_cast<WorkloadKind>(k);
    World w = make_gnm_world(24, 96, 5, test::NetKind::kSync);
    test::mark_msf(w);
    const UpdateTrace t =
        generate_trace(*w.g, WorkloadSpec::of(kind, 40), 99);
    core::SessionOptions opts;
    opts.check_oracle = true;
    MaintenanceSession session(*w.g, *w.forest, *w.net,
                               core::ForestKind::kMst, opts);
    session.apply_all(t.ops);
    EXPECT_EQ(session.oracle_failures(), 0u) << workload_name(kind);
    for (const core::OpRecord& rec : session.log()) {
      EXPECT_TRUE(rec.applied) << workload_name(kind);
    }
  }
}

TEST(Generator, GrowthIsInsertHeavy) {
  World w = make_gnm_world(48, 120, 3);
  const UpdateTrace t =
      generate_trace(*w.g, WorkloadSpec::of(WorkloadKind::kGrowth, 100), 8);
  std::size_t inserts = 0;
  for (const UpdateOp& op : t.ops) {
    if (op.kind == OpKind::kInsert) ++inserts;
  }
  EXPECT_GT(inserts, t.ops.size() / 2);
}

TEST(Generator, HotspotConcentratesEndpoints) {
  World w = make_gnm_world(64, 256, 4);
  WorkloadSpec spec = WorkloadSpec::of(WorkloadKind::kHotspot, 120);
  spec.hotspot_fraction = 0.1;
  const UpdateTrace t = generate_trace(*w.g, spec, 21);
  // Nearly every op touches the small hot set: the most-touched ~10% of the
  // nodes cover the vast majority of ops (a uniform stream covers ~20%).
  std::vector<std::size_t> touches(w.g->node_count(), 0);
  for (const UpdateOp& op : t.ops) {
    ++touches[op.u];
    ++touches[op.v];
  }
  std::vector<graph::NodeId> by_heat(w.g->node_count());
  std::iota(by_heat.begin(), by_heat.end(), graph::NodeId{0});
  std::sort(by_heat.begin(), by_heat.end(),
            [&](graph::NodeId a, graph::NodeId b) {
              return touches[a] > touches[b];
            });
  std::vector<char> core_set(w.g->node_count(), 0);
  for (std::size_t i = 0; i < 7; ++i) core_set[by_heat[i]] = 1;
  std::size_t covered = 0;
  for (const UpdateOp& op : t.ops) {
    if (core_set[op.u] || core_set[op.v]) ++covered;
  }
  EXPECT_GT(covered * 10, t.ops.size() * 7);  // > 70% of ops hit the core
}

TEST(Session, RecordsPerOpCostDeltas) {
  World w = make_gnm_world(20, 80, 9, test::NetKind::kAsync);
  test::mark_msf(w);
  MaintenanceSession session(*w.g, *w.forest, *w.net,
                             core::ForestKind::kMst);
  const auto tree = w.forest->marked_edges();
  const auto& e0 = w.g->edge(tree[0]);
  const auto& rec = session.apply(UpdateOp::erase(e0.u, e0.v));
  EXPECT_TRUE(rec.applied);
  EXPECT_GT(rec.cost.messages, 0u);
  EXPECT_EQ(rec.cost.messages, w.net->metrics().messages);  // first op

  const auto tree2 = w.forest->marked_edges();
  const auto& e1 = w.g->edge(tree2[1]);
  session.apply(UpdateOp::erase(e1.u, e1.v));
  ASSERT_EQ(session.log().size(), 2u);
  const sim::Metrics sum = session.log()[0].cost;
  sim::Metrics total = sum;
  total += session.log()[1].cost;
  EXPECT_EQ(total.messages, session.total_cost().messages);
  EXPECT_EQ(total.message_bits, session.total_cost().message_bits);
  EXPECT_EQ(session.ops_applied(), 2u);
}

TEST(Session, UnresolvableOpsAreSkippedNotFatal) {
  World w = make_gnm_world(10, 20, 6, test::NetKind::kAsync);
  test::mark_msf(w);
  core::SessionOptions opts;
  opts.check_oracle = true;
  MaintenanceSession session(*w.g, *w.forest, *w.net, core::ForestKind::kMst,
                             opts);
  // Delete a non-existent edge, insert a duplicate, reweigh a ghost,
  // self-loop and out-of-range endpoints: all skipped at zero cost.
  graph::NodeId u = 0, v = 0;
  for (v = 1; v < 10; ++v) {
    if (!w.g->find_edge(0, v).has_value()) break;
  }
  ASSERT_LT(v, 10u);
  const auto& alive = w.g->alive_edge_indices();
  const auto& ed = w.g->edge(alive[0]);
  for (const UpdateOp& op :
       {UpdateOp::erase(u, v), UpdateOp::insert(ed.u, ed.v, 5),
        UpdateOp::reweigh(u, v, 5), UpdateOp::erase(3, 3),
        UpdateOp::insert(0, 1000, 5)}) {
    const auto& rec = session.apply(op);
    EXPECT_FALSE(rec.applied);
    EXPECT_EQ(rec.action, core::RepairAction::kNone);
    EXPECT_EQ(rec.cost.messages, 0u);
    EXPECT_TRUE(rec.oracle_ok);
  }
  EXPECT_EQ(session.oracle_failures(), 0u);
  EXPECT_EQ(session.ops_applied(), 5u);
}

TEST(Session, KeepLogOffRetainsOnlyLastRecord) {
  World w = make_gnm_world(16, 48, 8, test::NetKind::kAsync);
  test::mark_msf(w);
  core::SessionOptions opts;
  opts.keep_log = false;
  MaintenanceSession session(*w.g, *w.forest, *w.net, core::ForestKind::kMst,
                             opts);
  const auto tree = w.forest->marked_edges();
  const auto& ed = w.g->edge(tree[0]);
  const auto& rec = session.apply(UpdateOp::erase(ed.u, ed.v));
  EXPECT_TRUE(rec.applied);
  EXPECT_TRUE(session.log().empty());
  EXPECT_EQ(session.ops_applied(), 1u);
}

}  // namespace
}  // namespace kkt::workload
