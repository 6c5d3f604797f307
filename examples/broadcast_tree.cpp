// Broadcast tree: construct an ST with o(m) messages and use it.
//
//   $ ./broadcast_tree [n] [m] [seed]
//
// The paper's motivation: "messages may be broadcast from one node to all
// others or values from all nodes can be combined from the leaves up to one
// node ... with a number of messages proportional to the size of the tree,
// rather than all edges in the network, as when communication is by
// flooding." This example builds the spanning tree with Build ST (FindAny-C
// Boruvka), compares its construction cost against flooding, then actually
// *uses* the tree: elects a leader and aggregates a network-wide maximum
// with one broadcast-and-echo.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "baseline/flood_st.h"
#include "core/build_mst.h"
#include "proto/tree_ops.h"
#include "scenario/scenario.h"
#include "sim/network.h"

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 128;
  const std::size_t m =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10)
               : std::min(20 * n, n * (n - 1) / 2);
  const std::uint64_t seed =
      argc > 3 ? std::strtoull(argv[3], nullptr, 10) : 99;

  kkt::graph::Graph g = kkt::scenario::build_graph(
      kkt::scenario::GraphSpec::gnm(n, m, 1u << 10), seed);

  // --- construction: KKT Build ST vs flooding ------------------------------
  kkt::graph::MarkedForest st(g);
  std::uint64_t kkt_msgs = 0;
  {
    kkt::sim::Network net(g, seed, kkt::sim::DeliveryPolicy::sync());
    const auto stats = kkt::core::build_st(net, st);
    kkt_msgs = net.metrics().messages;
    std::printf("Build ST (KKT):   %8" PRIu64 " messages, %zu phases, %s\n",
                kkt_msgs, stats.phases,
                stats.spanning ? "spanning" : "NOT spanning");
  }
  {
    kkt::graph::MarkedForest flooded(g);
    kkt::sim::Network net(g, seed, kkt::sim::DeliveryPolicy::sync());
    kkt::baseline::flood_build_st(net, flooded);
    std::printf("Flooding ST:      %8" PRIu64 " messages (m = %zu)\n",
                net.metrics().messages, m);
  }

  // --- usage: leader election + aggregation over the tree ------------------
  kkt::sim::Network net(g, seed + 1, kkt::sim::DeliveryPolicy::sync());
  kkt::proto::TreeOps ops(net, kkt::graph::TreeView(st));
  std::vector<kkt::graph::NodeId> everyone(n);
  for (kkt::graph::NodeId v = 0; v < n; ++v) everyone[v] = v;

  const auto before = net.metrics().messages;
  const kkt::proto::ElectionResult el = ops.elect(everyone);
  std::printf("\nleader election over the tree: node %u (ext id %u), %"
              PRIu64 " messages\n",
              el.leader, g.ext_id(el.leader),
              net.metrics().messages - before);

  // Aggregate: the maximum external ID in the network, one broadcast-echo.
  const auto b0 = net.metrics().messages;
  const kkt::proto::Words result = ops.broadcast_echo(
      el.leader, {},
      [&g](kkt::graph::NodeId self, std::span<const std::uint64_t>) {
        return kkt::proto::Words{g.ext_id(self)};
      },
      kkt::proto::combine_max());
  std::printf("network-wide max ID via broadcast-and-echo: %" PRIu64
              " (%" PRIu64 " messages = 2(n-1))\n",
              result.at(0), net.metrics().messages - b0);

  std::printf("\nconstruction went through %.1f%% of the flooding cost;\n"
              "every later broadcast costs %zu instead of ~%zu messages.\n",
              100.0 * double(kkt_msgs) / double(2 * m), n - 1, 2 * m);
  return 0;
}
