#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "sim/adversarial_network.h"
#include "sim/async_network.h"
#include "sim/sync_network.h"
#include "test_util.h"

namespace kkt::sim {
namespace {

using graph::NodeId;

// Ping-pong: node A sends `hops` messages back and forth with node B.
class PingPong final : public Protocol {
 public:
  PingPong(NodeId a, NodeId b, int hops) : a_(a), b_(b), hops_(hops) {}

  void on_start(Network& net, NodeId self) override {
    if (hops_ > 0) net.send(self, self == a_ ? b_ : a_, Message(Tag::kNone));
  }

  void on_message(Network& net, NodeId self, NodeId from,
                  const Message&) override {
    ++received_;
    if (received_ < hops_) net.send(self, from, Message(Tag::kNone));
  }

  int received() const { return received_; }

 private:
  NodeId a_, b_;
  int hops_;
  int received_ = 0;
};

std::unique_ptr<graph::Graph> path_graph(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  auto g = std::make_unique<graph::Graph>(n, rng);
  for (NodeId v = 0; v + 1 < n; ++v) g->add_edge(v, v + 1, 1);
  return g;
}

TEST(SyncNetwork, CountsMessagesAndRounds) {
  auto g = path_graph(2, 1);
  SyncNetwork net(*g, 7);
  PingPong proto(0, 1, 5);
  const NodeId participants[] = {0};
  const std::uint64_t rounds = net.run(proto, participants);
  EXPECT_EQ(proto.received(), 5);
  EXPECT_EQ(net.metrics().messages, 5u);
  EXPECT_EQ(rounds, 5u);  // one hop per round
  EXPECT_EQ(net.metrics().rounds, 5u);
}

TEST(SyncNetwork, MessageBitsAccounted) {
  auto g = path_graph(2, 2);
  SyncNetwork net(*g, 7);

  class OneShot final : public Protocol {
   public:
    void on_start(Network& net, NodeId self) override {
      net.send(self, 1, Message(Tag::kNone, {1, 2, 3}));
    }
    void on_message(Network&, NodeId, NodeId, const Message&) override {}
  } proto;

  const NodeId participants[] = {0};
  net.run(proto, participants);
  EXPECT_EQ(net.metrics().messages, 1u);
  EXPECT_EQ(net.metrics().message_bits, 16 + 3 * 64u);
}

TEST(SyncNetwork, SequentialRunsAccumulate) {
  auto g = path_graph(2, 3);
  SyncNetwork net(*g, 7);
  const NodeId participants[] = {0};
  for (int i = 0; i < 3; ++i) {
    PingPong proto(0, 1, 2);
    net.run(proto, participants);
  }
  EXPECT_EQ(net.metrics().messages, 6u);
  EXPECT_EQ(net.metrics().rounds, 6u);
}

TEST(AsyncNetwork, DeliversEverythingEventually) {
  auto g = path_graph(2, 4);
  AsyncNetwork net(*g, 99);
  PingPong proto(0, 1, 50);
  const NodeId participants[] = {0};
  net.run(proto, participants);
  EXPECT_EQ(proto.received(), 50);
  EXPECT_EQ(net.metrics().messages, 50u);
  EXPECT_GT(net.metrics().rounds, 0u);
}

TEST(AsyncNetwork, DeterministicGivenSeed) {
  auto g = path_graph(2, 5);
  std::uint64_t rounds[2];
  for (int i = 0; i < 2; ++i) {
    AsyncNetwork net(*g, 1234);
    PingPong proto(0, 1, 20);
    const NodeId participants[] = {0};
    rounds[i] = net.run(proto, participants);
  }
  EXPECT_EQ(rounds[0], rounds[1]);
}

TEST(AsyncNetwork, DifferentSeedsDifferentSchedules) {
  auto g = path_graph(2, 6);
  std::uint64_t totals[2];
  for (int i = 0; i < 2; ++i) {
    AsyncNetwork net(*g, 1000 + i);
    PingPong proto(0, 1, 40);
    const NodeId participants[] = {0};
    totals[i] = net.run(proto, participants);
  }
  EXPECT_NE(totals[0], totals[1]);
}

TEST(ParallelPhase, RoundsAreMaxOverBranches) {
  auto g = path_graph(3, 7);
  SyncNetwork net(*g, 7);
  ParallelPhase phase(net);

  const NodeId participants0[] = {0};
  phase.begin_branch();
  {
    PingPong proto(0, 1, 3);
    net.run(proto, participants0);
  }
  phase.end_branch();

  phase.begin_branch();
  {
    PingPong proto(1, 2, 7);
    const NodeId participants1[] = {1};
    net.run(proto, participants1);
  }
  phase.end_branch();
  phase.finish();

  EXPECT_EQ(net.metrics().messages, 10u);       // messages sum
  EXPECT_EQ(net.metrics().rounds, 7u);          // time is the max branch
  EXPECT_EQ(phase.max_branch_rounds(), 7u);
}

TEST(Network, NodeRngsAreIndependentStreams) {
  auto g = path_graph(3, 8);
  SyncNetwork net(*g, 42);
  const std::uint64_t a = net.node_rng(0).next();
  const std::uint64_t b = net.node_rng(1).next();
  EXPECT_NE(a, b);
  // Same seed reproduces the same streams.
  SyncNetwork net2(*g, 42);
  EXPECT_EQ(net2.node_rng(0).next(), a);
  EXPECT_EQ(net2.node_rng(1).next(), b);
}

TEST(AdversarialNetwork, DeliversEverythingEventually) {
  auto g = path_graph(2, 14);
  AdversarialNetwork net(*g, 99);
  PingPong proto(0, 1, 50);
  const NodeId participants[] = {0};
  net.run(proto, participants);
  EXPECT_EQ(proto.received(), 50);
  EXPECT_EQ(net.metrics().messages, 50u);
  EXPECT_GT(net.metrics().rounds, 0u);
}

TEST(AdversarialNetwork, DeterministicGivenSeed) {
  auto g = path_graph(2, 15);
  std::uint64_t rounds[2];
  for (int i = 0; i < 2; ++i) {
    AdversarialNetwork net(*g, 4321);
    PingPong proto(0, 1, 20);
    const NodeId participants[] = {0};
    rounds[i] = net.run(proto, participants);
  }
  EXPECT_EQ(rounds[0], rounds[1]);
}

TEST(AdversarialNetwork, PerEdgeDelayBoundsAreHonored) {
  // Pin the single edge to an exact delay: one hop must take exactly that
  // long once jitter is disabled.
  auto g = path_graph(2, 16);
  AdversarialNetwork::Config cfg;
  cfg.reorder_window = 0;
  AdversarialNetwork net(*g, 5, cfg);
  net.adversary().set_edge_bounds(0, 1, 9, 9);
  PingPong proto(0, 1, 4);
  const NodeId participants[] = {0};
  const std::uint64_t elapsed = net.run(proto, participants);
  EXPECT_EQ(elapsed, 4 * 9u);
}

TEST(AdversarialNetwork, EdgeBoundsAreInsertionOrderIndependent) {
  // Unordered-container audit pin: per-edge bounds now live in a sorted
  // flat map keyed by the edge id, so the schedule depends only on which
  // bounds are set -- never on the order the caller installed them in.
  auto g = path_graph(3, 16);
  std::uint64_t elapsed[2];
  for (int i = 0; i < 2; ++i) {
    AdversarialNetwork::Config cfg;
    cfg.reorder_window = 0;
    AdversarialNetwork net(*g, 5, cfg);
    if (i == 0) {
      net.adversary().set_edge_bounds(0, 1, 3, 3);
      net.adversary().set_edge_bounds(1, 2, 7, 7);
    } else {
      net.adversary().set_edge_bounds(1, 2, 7, 7);
      net.adversary().set_edge_bounds(0, 1, 3, 3);
    }
    PingPong proto(1, 2, 4);
    const NodeId participants[] = {1};
    elapsed[i] = net.run(proto, participants);
  }
  EXPECT_EQ(elapsed[0], elapsed[1]);
  EXPECT_EQ(elapsed[0], 4 * 7u);
}

TEST(Tag, NameRoundTripCoversEveryEnumerator) {
  std::set<std::string> seen;
  for (std::uint16_t i = 0; i < static_cast<std::uint16_t>(Tag::kTagCount);
       ++i) {
    const Tag t = static_cast<Tag>(i);
    const std::string name = tag_name(t);
    EXPECT_NE(name, "?") << "tag " << i << " has no name";
    EXPECT_TRUE(seen.insert(name).second)
        << "duplicate tag name '" << name << "'";
    const auto back = tag_from_name(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, t) << name;
  }
  EXPECT_FALSE(tag_from_name("?").has_value());
  EXPECT_FALSE(tag_from_name("no-such-tag").has_value());
}

TEST(Metrics, PerTagBitsAccounted) {
  auto g = path_graph(2, 18);
  SyncNetwork net(*g, 7);

  class TwoTags final : public Protocol {
   public:
    void on_start(Network& net, NodeId self) override {
      net.send(self, 1, Message(Tag::kBroadcast, {1, 2}));
      net.send(self, 1, Message(Tag::kEcho, {3}));
      net.send(self, 1, Message(Tag::kEcho));
    }
    void on_message(Network&, NodeId, NodeId, const Message&) override {}
  } proto;

  const NodeId participants[] = {0};
  net.run(proto, participants);
  const Metrics& m = net.metrics();
  EXPECT_EQ(m.tag_count(Tag::kBroadcast), 1u);
  EXPECT_EQ(m.tag_bits(Tag::kBroadcast), 16 + 2 * 64u);
  EXPECT_EQ(m.tag_count(Tag::kEcho), 2u);
  EXPECT_EQ(m.tag_bits(Tag::kEcho), (16 + 64u) + 16u);
  EXPECT_EQ(m.message_bits,
            m.tag_bits(Tag::kBroadcast) + m.tag_bits(Tag::kEcho));
}

TEST(InlineWords, VectorSubsetBehaviour) {
  InlineWords<8> w;
  EXPECT_TRUE(w.empty());
  w.push_back(5);
  w.push_back(7);
  EXPECT_EQ(w.size(), 2u);
  EXPECT_EQ(w.at(0), 5u);
  EXPECT_EQ(w[1], 7u);
  w[1] = 9;
  EXPECT_EQ(w.back(), 9u);

  const InlineWords<8> filled(3, 42);
  EXPECT_EQ(filled.size(), 3u);
  std::uint64_t sum = 0;
  for (std::uint64_t v : filled) sum += v;
  EXPECT_EQ(sum, 3 * 42u);

  InlineWords<8> copy = filled;
  EXPECT_TRUE(copy == filled);
  copy.push_back(1);
  EXPECT_FALSE(copy == filled);

  w.assign(filled.span());
  EXPECT_TRUE(w == filled);

  const std::span<const std::uint64_t> view = filled;
  EXPECT_EQ(view.size(), 3u);
  EXPECT_EQ(view[2], 42u);
}

TEST(InlineWords, ReleaseOverflowIsRememberedNotStored) {
#ifdef NDEBUG
  InlineWords<2> w{1, 2};
  w.push_back(3);  // over budget: dropped, flagged
  EXPECT_EQ(w.size(), 2u);
  EXPECT_TRUE(w.overflowed());
  w.clear();
  EXPECT_FALSE(w.overflowed());
#else
  GTEST_SKIP() << "overflow asserts in debug builds";
#endif
}

TEST(ParallelPhase, BranchScopeRecordsMaxOverBranches) {
  auto g = path_graph(3, 19);
  SyncNetwork net(*g, 7);
  ParallelPhase phase(net);
  {
    const auto branch = phase.branch();
    PingPong proto(0, 1, 2);
    const NodeId participants[] = {0};
    net.run(proto, participants);
  }
  {
    const auto branch = phase.branch();
    PingPong proto(1, 2, 6);
    const NodeId participants[] = {1};
    net.run(proto, participants);
  }
  phase.finish();
  EXPECT_EQ(net.metrics().messages, 8u);
  EXPECT_EQ(net.metrics().rounds, 6u);
  EXPECT_EQ(phase.max_branch_rounds(), 6u);
}

TEST(Metrics, PlusEquals) {
  Metrics a;
  a.messages = 10;
  a.rounds = 5;
  a.peak_node_state_bits = 100;
  a.per_tag_bits[1] = 64;
  a.dropped_deliveries = 4;
  Metrics b;
  b.messages = 3;
  b.rounds = 2;
  b.peak_node_state_bits = 50;
  b.per_tag_bits[1] = 16;
  b.dropped_deliveries = 2;
  a += b;
  EXPECT_EQ(a.messages, 13u);
  EXPECT_EQ(a.rounds, 7u);
  EXPECT_EQ(a.peak_node_state_bits, 100u);  // high-water mark, not a sum
  EXPECT_EQ(a.per_tag_bits[1], 80u);
  EXPECT_EQ(a.dropped_deliveries, 6u);
  a.reset();
  EXPECT_EQ(a.messages, 0u);
  EXPECT_EQ(a.dropped_deliveries, 0u);
}

// The max_rounds backstop discards whatever is still in flight. Those
// discards must surface in dropped_deliveries -- not vanish silently --
// and the count must agree between SyncNetwork's unit-delay skip and the
// same schedule asked of the policy on every send.
TEST(SyncNetwork, MaxRoundsBackstopCountsUndeliveredAsDrops) {
  auto g = path_graph(2, 20);
  SyncNetwork net(*g, 7);
  PingPong proto(0, 1, 100);
  const NodeId participants[] = {0};
  const std::uint64_t rounds = net.run(proto, participants, /*max_rounds=*/10);
  // Ten hops land; the eleventh send is pending when the backstop trips.
  EXPECT_EQ(rounds, 10u);
  EXPECT_EQ(proto.received(), 10);
  EXPECT_EQ(net.metrics().messages, 11u);
  EXPECT_EQ(net.metrics().dropped_deliveries, 1u);
}

TEST(SyncNetwork, MaxRoundsBackstopDropCountMatchesOnHeapPath) {
  auto g = path_graph(2, 21);
  AdversarialNetwork::Config unit;
  unit.min_delay = 1;
  unit.max_delay = 1;
  unit.reorder_window = 0;
  AdversarialNetwork net(*g, 7, unit);
  ASSERT_FALSE(net.policy().unit_delay());
  PingPong proto(0, 1, 100);
  const NodeId participants[] = {0};
  const std::uint64_t rounds = net.run(proto, participants, /*max_rounds=*/10);
  EXPECT_EQ(rounds, 10u);
  EXPECT_EQ(proto.received(), 10);
  EXPECT_EQ(net.metrics().messages, 11u);
  EXPECT_EQ(net.metrics().dropped_deliveries, 1u);
}

// Every delivery is echoed to all of the recipient's neighbours, so traffic
// keeps growing until the backstop cuts it off. How much is in flight at
// the cut depends on the whole delay schedule.
class Gossip final : public Protocol {
 public:
  void on_start(Network& net, NodeId self) override { echo(net, self); }
  void on_message(Network& net, NodeId self, NodeId, const Message&) override {
    ++received;
    echo(net, self);
  }
  std::uint64_t received = 0;

 private:
  static void echo(Network& net, NodeId self) {
    for (const graph::Incidence& inc : net.graph().incident(self)) {
      net.send(self, inc.peer, Message(Tag::kNone));
    }
  }
};

// Backstop pins off the unit-delay path. The counts are those of a
// (timestamp, seq) priority-queue transport, which the wheel must
// reproduce exactly.
TEST(AsyncNetwork, MaxRoundsBackstopCountsUndeliveredAsDrops) {
  auto g = path_graph(3, 22);
  AsyncNetwork net(*g, 7);
  Gossip proto;
  const NodeId participants[] = {1};
  const std::uint64_t rounds = net.run(proto, participants, /*max_rounds=*/60);
  EXPECT_EQ(rounds, 60u);
  const Metrics& m = net.metrics();
  EXPECT_EQ(m.messages, proto.received + m.dropped_deliveries);
  EXPECT_EQ(m.messages, 78u);
  EXPECT_EQ(m.dropped_deliveries, 24u);
}

TEST(AdversarialNetwork, MaxRoundsBackstopCountsUndeliveredAsDrops) {
  auto g = path_graph(3, 23);
  AdversarialNetwork::Config cfg;
  cfg.min_delay = 1;
  cfg.max_delay = 8;
  cfg.reorder_window = 4;
  AdversarialNetwork net(*g, 7, cfg);
  Gossip proto;
  const NodeId participants[] = {1};
  const std::uint64_t rounds = net.run(proto, participants, /*max_rounds=*/60);
  EXPECT_EQ(rounds, 60u);
  const Metrics& m = net.metrics();
  EXPECT_EQ(m.messages, proto.received + m.dropped_deliveries);
  EXPECT_EQ(m.messages, 152u);
  EXPECT_EQ(m.dropped_deliveries, 46u);
}

// ---------------------------------------------------------------------------
// The timing wheel's delivery order, horizon guard and growth.
// ---------------------------------------------------------------------------

// Wraps a policy and logs every timestamp it hands out, tagged with the
// payload id the sender announced in `payload`: one entry per send, in send
// order.
template <typename Inner>
class LoggingPolicy final : public DeliveryPolicy {
 public:
  explicit LoggingPolicy(Inner inner) : inner_(std::move(inner)) {}

  std::uint64_t delivery_time(NodeId from, NodeId to,
                              std::uint64_t now) override {
    const std::uint64_t at = inner_.delivery_time(from, to, now);
    log.emplace_back(at, payload);
    return at;
  }
  std::uint64_t max_delay() const noexcept override {
    return inner_.max_delay();
  }

  std::uint64_t payload = 0;                                 // set per send
  std::vector<std::pair<std::uint64_t, std::uint64_t>> log;  // (at, payload)

 private:
  Inner inner_;
};

// Every node opens by messaging each neighbour; every delivery is answered
// by one message to a neighbour picked from the payload id, until `budget`
// sends. Each send carries a fresh id; deliveries are logged by id.
template <typename Policy>
class Tracer final : public Protocol {
 public:
  Tracer(Policy& policy, std::uint64_t budget)
      : policy_(&policy), budget_(budget) {}

  void on_start(Network& net, NodeId self) override {
    for (const graph::Incidence& inc : net.graph().incident(self)) {
      send(net, self, inc.peer);
    }
  }
  void on_message(Network& net, NodeId self, NodeId,
                  const Message& msg) override {
    delivered.push_back(msg.words[0]);
    const auto row = net.graph().incident(self);
    send(net, self, row[(msg.words[0] * 7) % row.size()].peer);
  }

  std::vector<std::uint64_t> delivered;

 private:
  void send(Network& net, NodeId from, NodeId to) {
    if (next_id_ == budget_) return;
    policy_->payload = next_id_;
    net.send(from, to, Message(Tag::kNone, {next_id_}));
    ++next_id_;
  }

  Policy* policy_;
  std::uint64_t budget_;
  std::uint64_t next_id_ = 0;
};

// Runs Tracer over `policy` on K_6 and checks the delivered order against
// the stable sort of the policy's log by timestamp.
template <typename Inner>
void expect_stable_time_order(Inner inner) {
  util::Rng rng(30);
  const graph::Graph g = graph::complete(6, {}, rng);
  auto owned = std::make_unique<LoggingPolicy<Inner>>(std::move(inner));
  LoggingPolicy<Inner>& policy = *owned;
  Network net(g, 7, std::move(owned));
  Tracer<LoggingPolicy<Inner>> proto(policy, 4000);
  const NodeId participants[] = {0, 1, 2, 3, 4, 5};
  net.run(proto, participants);

  auto expected = policy.log;
  std::stable_sort(expected.begin(), expected.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  ASSERT_EQ(proto.delivered.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(proto.delivered[i], expected[i].second) << "delivery " << i;
  }
  EXPECT_EQ(net.metrics().messages, 4000u);
  EXPECT_EQ(expected.size(), net.metrics().messages);
}

TEST(DeliveryOrder, AdversarialMatchesStableSortByTimestamp) {
  // Edge {0, 1} sits at the widest bound, so its sends that draw the full
  // jitter of 4 land at now + horizon. Horizon 15 makes a wheel of exactly
  // 16 buckets, and such a send lands in the bucket drained one tick before.
  AdversarialConfig cfg;
  cfg.min_delay = 1;
  cfg.max_delay = 8;
  cfg.reorder_window = 4;
  AdversarialPolicy inner(11, cfg);
  inner.set_edge_bounds(0, 1, 11, 11);
  ASSERT_EQ(inner.max_delay(), 15u);
  expect_stable_time_order(std::move(inner));
}

TEST(DeliveryOrder, RandomDelayMatchesStableSortByTimestamp) {
  expect_stable_time_order(RandomDelayPolicy(12, 15));
}

// Claims a horizon of 2 but delivers `delay` ticks after the send.
class LyingPolicy final : public DeliveryPolicy {
 public:
  explicit LyingPolicy(std::uint64_t delay) : delay_(delay) {}
  std::uint64_t delivery_time(NodeId, NodeId, std::uint64_t now) override {
    return now + delay_;
  }
  std::uint64_t max_delay() const noexcept override { return 2; }

 private:
  std::uint64_t delay_;
};

void run_ping_pong_on(std::unique_ptr<DeliveryPolicy> policy) {
  auto g = path_graph(2, 31);
  Network net(*g, 7, std::move(policy));
  PingPong proto(0, 1, 4);
  const NodeId participants[] = {0};
  net.run(proto, participants);
}

// The wheel would file such a send under an earlier bucket and deliver it
// early. The guard is not an assert: it aborts in Release builds too.
TEST(TimingWheelDeathTest, DeliveryPastTheHorizonAborts) {
  EXPECT_DEATH(run_ping_pong_on(std::make_unique<LyingPolicy>(5)),
               "outside \\(0, 2\\]");
}

TEST(TimingWheelDeathTest, ZeroLatencyDeliveryAborts) {
  EXPECT_DEATH(run_ping_pong_on(std::make_unique<LyingPolicy>(0)),
               "outside \\(0, 2\\]");
}

TEST(TimingWheel, WiderEdgeBoundsBetweenRunsRegrowTheWheel) {
  auto g = path_graph(2, 32);
  AdversarialNetwork::Config cfg;
  cfg.reorder_window = 0;
  AdversarialNetwork net(*g, 5, cfg);
  const NodeId participants[] = {0};
  PingPong narrow(0, 1, 4);
  net.run(narrow, participants);
  EXPECT_EQ(narrow.received(), 4);
  EXPECT_EQ(net.policy().max_delay(), 8u);

  // 40 is past the 16-bucket wheel the first run built; the next run must
  // regrow it instead of aborting on the first send.
  net.adversary().set_edge_bounds(0, 1, 40, 40);
  EXPECT_EQ(net.policy().max_delay(), 40u);
  PingPong wide(0, 1, 4);
  EXPECT_EQ(net.run(wide, participants), 4 * 40u);
  EXPECT_EQ(wide.received(), 4);
}

TEST(AdversarialPolicy, HorizonCoversClampedBoundsAndJitter) {
  AdversarialConfig cfg;
  cfg.min_delay = 0;
  cfg.max_delay = 0;
  cfg.reorder_window = 0;
  AdversarialPolicy policy(1, cfg);
  EXPECT_EQ(policy.max_delay(), 1u);  // zero bounds clamp to one tick
  policy.set_edge_bounds(2, 3, 9, 4);  // hi < lo clamps hi up to lo
  EXPECT_EQ(policy.max_delay(), 9u);
  cfg.reorder_window = 6;
  AdversarialPolicy jittered(1, cfg);
  EXPECT_EQ(jittered.max_delay(), 7u);
}

TEST(RandomDelayPolicy, ZeroMaxDelayClampsToOneTick) {
  RandomDelayPolicy zero(3, 0);
  RandomDelayPolicy one(3, 1);
  EXPECT_EQ(zero.max_delay(), 1u);
  for (std::uint64_t now = 0; now < 50; ++now) {
    EXPECT_EQ(zero.delivery_time(0, 1, now), now + 1);
    EXPECT_EQ(one.delivery_time(0, 1, now), now + 1);
  }

  auto g = path_graph(2, 33);
  AsyncNetwork net(*g, 7, AsyncNetwork::Config{0});
  PingPong proto(0, 1, 6);
  const NodeId participants[] = {0};
  EXPECT_EQ(net.run(proto, participants), 6u);  // every hop takes one tick
  EXPECT_EQ(proto.received(), 6);
}

}  // namespace
}  // namespace kkt::sim
