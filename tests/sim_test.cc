#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.h"
#include "sim/network.h"
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
  Network net(*g, 7, DeliveryPolicy::sync());
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
  Network net(*g, 7, DeliveryPolicy::sync());

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
  Network net(*g, 7, DeliveryPolicy::sync());
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
  Network net(*g, 99, DeliveryPolicy::async(16));
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
    Network net(*g, 1234, DeliveryPolicy::async(16));
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
    Network net(*g, 1000 + i, DeliveryPolicy::async(16));
    PingPong proto(0, 1, 40);
    const NodeId participants[] = {0};
    totals[i] = net.run(proto, participants);
  }
  EXPECT_NE(totals[0], totals[1]);
}

TEST(ParallelPhase, RoundsAreMaxOverBranches) {
  auto g = path_graph(3, 7);
  Network net(*g, 7, DeliveryPolicy::sync());
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
  Network net(*g, 42, DeliveryPolicy::sync());
  const std::uint64_t a = net.node_rng(0).next();
  const std::uint64_t b = net.node_rng(1).next();
  EXPECT_NE(a, b);
  // Same seed reproduces the same streams.
  Network net2(*g, 42, DeliveryPolicy::sync());
  EXPECT_EQ(net2.node_rng(0).next(), a);
  EXPECT_EQ(net2.node_rng(1).next(), b);
}

TEST(AdversarialNetwork, DeliversEverythingEventually) {
  auto g = path_graph(2, 14);
  Network net(*g, 99, DeliveryPolicy::adversarial({}));
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
    Network net(*g, 4321, DeliveryPolicy::adversarial({}));
    PingPong proto(0, 1, 20);
    const NodeId participants[] = {0};
    rounds[i] = net.run(proto, participants);
  }
  EXPECT_EQ(rounds[0], rounds[1]);
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
  Network net(*g, 7, DeliveryPolicy::sync());

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
  Network net(*g, 7, DeliveryPolicy::sync());
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
// and the count must agree between the sync schedule and an adversarial
// one whose bounds fix every delay at one tick.
TEST(SyncNetwork, MaxRoundsBackstopCountsUndeliveredAsDrops) {
  auto g = path_graph(2, 20);
  Network net(*g, 7, DeliveryPolicy::sync());
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
  AdversarialConfig unit;
  unit.min_delay = 1;
  unit.max_delay = 1;
  unit.reorder_window = 0;
  Network net(*g, 7, DeliveryPolicy::adversarial(unit));
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

// Backstop pins on drawn delays. The counts are those of a (timestamp,
// seq) priority-queue transport, which the wheel must reproduce exactly.
TEST(AsyncNetwork, MaxRoundsBackstopCountsUndeliveredAsDrops) {
  auto g = path_graph(3, 22);
  Network net(*g, 7, DeliveryPolicy::async(16));
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
  AdversarialConfig cfg;
  cfg.min_delay = 1;
  cfg.max_delay = 8;
  cfg.reorder_window = 4;
  Network net(*g, 7, DeliveryPolicy::adversarial(cfg));
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
// The timing wheel's delivery order and the schedule's bounds.
// ---------------------------------------------------------------------------

// Every node opens by messaging each neighbour; every delivery is answered
// by one message to a neighbour picked from the payload id, until `budget`
// sends. Each send carries a fresh id; deliveries are logged by id. Before
// each send the tracer asks `replay`, a copy of the network's schedule taken
// before the run, for the send's timestamp: asked in send order, the copy
// draws what the network draws.
class Tracer final : public Protocol {
 public:
  Tracer(DeliveryPolicy replay, std::uint64_t budget)
      : replay_(replay), budget_(budget) {}

  void on_start(Network& net, NodeId self) override {
    for (const graph::Incidence& inc : net.graph().incident(self)) {
      send(net, self, inc.peer, 0);
    }
  }
  void on_message(Network& net, NodeId self, NodeId,
                  const Message& msg) override {
    const std::uint64_t id = msg.words[0];
    delivered.push_back(id);
    const auto row = net.graph().incident(self);
    send(net, self, row[(id * 7) % row.size()].peer, log[id].first);
  }

  std::vector<std::uint64_t> delivered;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> log;  // (at, id)

 private:
  void send(Network& net, NodeId from, NodeId to, std::uint64_t now) {
    if (log.size() == budget_) return;
    const std::uint64_t id = log.size();
    log.emplace_back(replay_.delivery_time(now), id);
    net.send(from, to, Message(Tag::kNone, {id}));
  }

  DeliveryPolicy replay_;
  std::uint64_t budget_;
};

// Runs Tracer under `policy` on K_6 and checks the delivered order against
// the stable sort of the replayed timestamps.
void expect_stable_time_order(const DeliveryPolicy& policy) {
  util::Rng rng(30);
  const graph::Graph g = graph::complete(6, {}, rng);
  Network net(g, 7, policy);
  Tracer proto(net.policy(), 4000);
  const NodeId participants[] = {0, 1, 2, 3, 4, 5};
  net.run(proto, participants);

  auto expected = proto.log;
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
  // Bounds [1, 11] plus jitter 4 make horizon 15, a wheel of exactly 16
  // buckets: a send that draws the full delay and jitter lands at
  // now + horizon, in the bucket drained one tick before.
  AdversarialConfig cfg;
  cfg.min_delay = 1;
  cfg.max_delay = 11;
  cfg.reorder_window = 4;
  const DeliveryPolicy policy = DeliveryPolicy::adversarial(cfg);
  ASSERT_EQ(policy.horizon(), 15u);
  expect_stable_time_order(policy);
}

TEST(DeliveryOrder, RandomDelayMatchesStableSortByTimestamp) {
  expect_stable_time_order(DeliveryPolicy::async(15));
}

// The wheel is sized once, from the horizon, when the Network is built; a
// schedule too wide for the 2^20-bucket bound is refused then, in Release
// builds too.
TEST(TimingWheelDeathTest, HorizonPastTheBoundAbortsAtConstruction) {
  const auto build = [](const AdversarialConfig& cfg) {
    auto g = path_graph(2, 31);
    Network net(*g, 7, DeliveryPolicy::adversarial(cfg));
  };
  EXPECT_DEATH(build({1, std::uint64_t{1} << 20, 1}),
               "horizon 1048576 \\+ 1 is outside \\[1, 1048576\\]");
  EXPECT_DEATH(build({1, 8, ~std::uint64_t{0}}), "is outside");
}

TEST(AdversarialPolicy, HorizonCoversClampedBoundsAndJitter) {
  AdversarialConfig cfg;
  cfg.min_delay = 0;
  cfg.max_delay = 0;
  cfg.reorder_window = 0;
  // Zero bounds clamp to one tick.
  EXPECT_EQ(DeliveryPolicy::adversarial(cfg).horizon(), 1u);
  cfg.reorder_window = 6;
  EXPECT_EQ(DeliveryPolicy::adversarial(cfg).horizon(), 7u);
  cfg.min_delay = 9;
  cfg.max_delay = 4;
  cfg.reorder_window = 0;
  // hi < lo clamps hi up to lo, which then fixes every delay.
  DeliveryPolicy inverted = DeliveryPolicy::adversarial(cfg);
  EXPECT_EQ(inverted.horizon(), 9u);
  for (std::uint64_t now = 0; now < 50; ++now) {
    EXPECT_EQ(inverted.delivery_time(now), now + 9);
  }
}

TEST(RandomDelayPolicy, ZeroMaxDelayClampsToOneTick) {
  DeliveryPolicy zero = DeliveryPolicy::async(0);
  DeliveryPolicy one = DeliveryPolicy::async(1);
  EXPECT_EQ(zero.horizon(), 1u);
  for (std::uint64_t now = 0; now < 50; ++now) {
    EXPECT_EQ(zero.delivery_time(now), now + 1);
    EXPECT_EQ(one.delivery_time(now), now + 1);
  }

  auto g = path_graph(2, 33);
  Network net(*g, 7, DeliveryPolicy::async(0));
  PingPong proto(0, 1, 6);
  const NodeId participants[] = {0};
  EXPECT_EQ(net.run(proto, participants), 6u);  // every hop takes one tick
  EXPECT_EQ(proto.received(), 6);
}

}  // namespace
}  // namespace kkt::sim
