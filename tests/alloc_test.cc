// Allocation accounting for the transport hot path.
//
// The wire-level contract of the message fabric (sim/inline_words.h,
// sim/network.cc) is that steady-state traffic performs no heap allocation:
// messages carry their payload inline, and envelopes sit in the timing
// wheel's buckets, which keep their capacity across operations. These
// tests hold that contract by instrumenting global operator new, which also
// counts bytes: the maintained forest's state must stay O(n + tree edges).
//
// Discipline: the first run of a workload warms the arenas (bucket growth
// is amortized and expected); the measured run must then allocate nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/find_min.h"
#include "graph/forest.h"
#include "graph/implicit.h"
#include "proto/tree_ops.h"
#include "sim/network.h"
#include "test_util.h"

// Replacing the global allocation functions would fight the sanitizers'
// own interceptors (ASan and TSan both intercept malloc/free), so the
// counting (and the zero-allocation expectations) only run in
// uninstrumented builds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define KKT_ALLOC_COUNTING 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define KKT_ALLOC_COUNTING 0
#endif
#endif
#ifndef KKT_ALLOC_COUNTING
#define KKT_ALLOC_COUNTING 1
#endif

namespace {

[[maybe_unused]] std::atomic<std::uint64_t> g_allocations{0};
[[maybe_unused]] std::atomic<std::uint64_t> g_bytes{0};

}  // namespace

#if KKT_ALLOC_COUNTING

namespace {
// Out of line: inlined into operator new, the byte count let GCC pair the
// replaced new with the free() in the replaced delete and report a
// -Wmismatched-new-delete false positive.
[[gnu::noinline]] void* counted_malloc(std::size_t size) {
  ++g_allocations;
  g_bytes += size;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return counted_malloc(size); }
void* operator new[](std::size_t size) { return counted_malloc(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#define KKT_SKIP_UNLESS_COUNTING() ((void)0)
#else
#define KKT_SKIP_UNLESS_COUNTING() \
  GTEST_SKIP() << "allocation counting disabled under sanitizers"
#endif

namespace kkt::sim {
namespace {

using graph::NodeId;

// Ping-pong with a full payload: the worst case for any per-message
// serialization cost.
class PingPong final : public Protocol {
 public:
  PingPong(NodeId a, NodeId b, int hops) : a_(a), b_(b), hops_(hops) {}

  void on_start(Network& net, NodeId self) override {
    if (hops_ > 0) net.send(self, self == a_ ? b_ : a_, ball());
  }

  void on_message(Network& net, NodeId self, NodeId from,
                  const Message&) override {
    ++received_;
    if (received_ < hops_) net.send(self, from, ball());
  }

  int received() const { return received_; }

 private:
  static Message ball() {
    return Message(Tag::kNone, {1, 2, 3, 4, 5, 6, 7, 8});
  }

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

std::uint64_t allocations_for_thousand_hops(Network& net) {
  const NodeId participants[] = {0};
  {
    PingPong warmup(0, 1, 1000);  // grows the wheel's buckets once
    net.run(warmup, participants);
  }
  const std::uint64_t before = g_allocations.load();
  PingPong measured(0, 1, 1000);
  net.run(measured, participants);
  const std::uint64_t after = g_allocations.load();
  EXPECT_EQ(measured.received(), 1000);
  return after - before;
}

TEST(Allocation, SyncSendDeliverIsAllocationFree) {
  KKT_SKIP_UNLESS_COUNTING();
  auto g = path_graph(2, 1);
  Network net(*g, 7, DeliveryPolicy::sync());
  EXPECT_EQ(allocations_for_thousand_hops(net), 0u);
}

TEST(Allocation, AsyncSendDeliverIsAllocationFree) {
  KKT_SKIP_UNLESS_COUNTING();
  auto g = path_graph(2, 2);
  Network net(*g, 7, DeliveryPolicy::async(16));
  EXPECT_EQ(allocations_for_thousand_hops(net), 0u);
}

TEST(Allocation, AdversarialSendDeliverIsAllocationFree) {
  KKT_SKIP_UNLESS_COUNTING();
  auto g = path_graph(2, 3);
  AdversarialConfig cfg;
  cfg.max_delay = 16;
  cfg.reorder_window = 8;
  Network net(*g, 7, DeliveryPolicy::adversarial(cfg));
  EXPECT_EQ(allocations_for_thousand_hops(net), 0u);
}

TEST(Allocation, MessageIsTriviallyCopyableAndInline) {
  KKT_SKIP_UNLESS_COUNTING();
  static_assert(std::is_trivially_copyable_v<Message>);
  Message m(Tag::kEcho, {1, 2, 3});
  const std::uint64_t before = g_allocations.load();
  Message copy = m;       // no heap involved
  copy.words.push_back(4);
  Message again = copy;
  EXPECT_EQ(g_allocations.load(), before);
  EXPECT_EQ(again.words.size(), 4u);
}

TEST(Allocation, TreeOpsBroadcastEchoSteadyStateIsAllocationFree) {
  KKT_SKIP_UNLESS_COUNTING();
  // The inner loop of FindMin: repeated broadcast-and-echoes over one
  // TreeOps. After the first op warms the scratch arena and the transport
  // pool, further ops must not allocate.
  test::World w = test::make_gnm_world(24, 60, 5);
  test::mark_msf(w);
  proto::TreeOps ops(*w.net, graph::TreeView(*w.forest));
  const graph::Graph& g = ops.graph();
  const NodeId root = 0;

  const proto::LocalFn local = [&g](NodeId self,
                                    std::span<const std::uint64_t>) {
    return proto::Words{g.ext_id(self)};
  };
  const proto::CombineFn combine = proto::combine_max();

  (void)ops.broadcast_echo(root, proto::Words{}, local, combine);  // warm
  const std::uint64_t before = g_allocations.load();
  const proto::Words result =
      ops.broadcast_echo(root, proto::Words{}, local, combine);
  const std::uint64_t delta = g_allocations.load() - before;
  EXPECT_EQ(delta, 0u);
  EXPECT_GT(result.at(0), 0u);
}

TEST(Allocation, BroadcastEchoOnIndexedForestIsAllocationFree) {
  KKT_SKIP_UNLESS_COUNTING();
  // Tree walks read the forest's tree index. Once every node's entry is
  // built, a broadcast-and-echo allocates nothing per message -- and
  // neither does rebuilding an entry whose slab already has room (here: a
  // node unmarking and re-marking its own half of a tree edge).
  test::World w = test::make_gnm_world(256, 4096, 9);  // average degree 32
  test::mark_msf(w);
  proto::TreeOps ops(*w.net, graph::TreeView(*w.forest));
  const graph::Graph& g = ops.graph();
  const proto::LocalFn local = [&g](NodeId self,
                                    std::span<const std::uint64_t>) {
    return proto::Words{g.ext_id(self)};
  };
  const proto::CombineFn combine = proto::combine_max();
  (void)ops.broadcast_echo(0, proto::Words{}, local, combine);  // indexes

  const graph::EdgeIdx e = w.forest->marked_edges().front();
  const NodeId end = g.edge(e).u;
  w.forest->unmark_half(e, end);
  w.forest->mark_half(e, end);
  const std::uint64_t messages_before = w.net->metrics().messages;
  const std::uint64_t before = g_allocations.load();
  const proto::Words result =
      ops.broadcast_echo(0, proto::Words{}, local, combine);
  const std::uint64_t delta = g_allocations.load() - before;
  EXPECT_EQ(delta, 0u);
  // A spanning tree on 256 nodes: one broadcast and one echo per edge.
  EXPECT_EQ(w.net->metrics().messages - messages_before, 2u * 255u);
  EXPECT_GT(result.at(0), 0u);
}

TEST(Allocation, FindMinInnerLoopIsAllocationFree) {
  KKT_SKIP_UNLESS_COUNTING();
  // FindMin is a root-driven loop of TestOut and HP-TestOut
  // broadcast-and-echoes. Their per-run state is built once at the root
  // and borrowed by reference, so the closures stay inside std::function's
  // inline buffer and BroadcastEcho borrows rather than copies them: once
  // the arenas are warm, a whole FindMin allocates nothing. Both the
  // default (amplified, shortcut) and the paper-faithful single-hash
  // configurations run.
  test::World w = test::make_gnm_world(64, 256, 11);
  const std::vector<graph::EdgeIdx> msf = test::mark_msf(w);
  const graph::EdgeIdx split = msf.front();
  w.forest->clear_edge(split);
  const NodeId root = w.g->edge(split).u;
  proto::TreeOps ops(*w.net, graph::TreeView(*w.forest));
  core::FindMinConfig faithful;
  faithful.hash_reps = 1;
  faithful.skip_redundant_interval_check = false;
  faithful.skip_certified_low_check = false;
  for (const core::FindMinConfig& cfg : {core::FindMinConfig{}, faithful}) {
    ASSERT_TRUE(core::find_min(ops, root, cfg).found);  // warm
    const std::uint64_t before = g_allocations.load();
    const core::FindMinResult res = core::find_min(ops, root, cfg);
    EXPECT_EQ(g_allocations.load() - before, 0u);
    EXPECT_TRUE(res.found);
    EXPECT_GT(res.stats.iterations, 1);
  }
}

TEST(Allocation, ForestBytesAreLinearInNodesOnImplicitComplete) {
  KKT_SKIP_UNLESS_COUNTING();
  // Marks are node-local state: constructing a forest on implicit K_n
  // (m ~ 8.4M) and marking a spanning path must allocate O(n) bytes -- per
  // node a slab header plus scratch slot (64 B is ample) and at most four
  // entries of pool space for its <= 2 path edges (slabs and pool segments
  // both grow by doubling).
  constexpr std::size_t kNodes = 4096;
  const graph::Graph g = graph::make_implicit_graph({kNodes, /*seed=*/1});
  const std::uint64_t before = g_bytes.load();
  graph::MarkedForest forest(g);
  for (NodeId v = 0; v + 1 < kNodes; ++v) {
    forest.mark_edge(*g.find_edge(v, v + 1));
  }
  const std::uint64_t bytes = g_bytes.load() - before;
  EXPECT_LE(bytes, kNodes * (64 + 4 * sizeof(graph::MarkedForest::Entry)));
  EXPECT_EQ(forest.marked_edges().size(), kNodes - 1);
  EXPECT_TRUE(forest.is_forest());
  EXPECT_EQ(forest.components().second, 1u);
}

}  // namespace
}  // namespace kkt::sim
