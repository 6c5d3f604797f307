// Crossover explorer: where does o(m) start to pay?
//
//   $ ./crossover_explorer [max_levels]
//
// Sweeps the hierarchical complete graphs (GHS's Theta(m) worst case,
// n = 2^levels) and prints KKT Build MST vs the GHS baseline side by side
// -- the reproduction of the paper's headline "folk theorem" gap. Also
// prints the density sweep at fixed n showing KKT's message count is flat
// in m while flooding-style costs grow linearly.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "baseline/ghs.h"
#include "core/build_mst.h"
#include "graph/mst_oracle.h"
#include "scenario/scenario.h"
#include "sim/network.h"

namespace {

struct Run {
  std::uint64_t messages;
  bool correct;
};

Run run_kkt(const kkt::graph::Graph& g, std::uint64_t seed) {
  kkt::graph::MarkedForest f(g);
  kkt::sim::Network net(g, seed, kkt::sim::DeliveryPolicy::sync());
  kkt::core::build_mst(net, f);
  return {net.metrics().messages,
          kkt::graph::same_edge_set(f.marked_edges(),
                                    kkt::graph::kruskal_msf(g))};
}

Run run_ghs(const kkt::graph::Graph& g, std::uint64_t seed) {
  kkt::graph::MarkedForest f(g);
  kkt::sim::Network net(g, seed, kkt::sim::DeliveryPolicy::sync());
  kkt::baseline::ghs_build_mst(net, f);
  return {net.metrics().messages,
          kkt::graph::same_edge_set(f.marked_edges(),
                                    kkt::graph::kruskal_msf(g))};
}

}  // namespace

int main(int argc, char** argv) {
  const int max_levels = argc > 1 ? std::atoi(argv[1]) : 9;

  std::printf("== hierarchical complete graphs (GHS worst case) ==\n");
  std::printf("%6s %9s %12s %12s %8s\n", "n", "m", "KKT msgs", "GHS msgs",
              "GHS/KKT");
  for (int lv = 5; lv <= max_levels; ++lv) {
    const kkt::graph::Graph g = kkt::scenario::build_graph(
        kkt::scenario::GraphSpec::hierarchical(lv), 1);
    const Run kkt_run = run_kkt(g, 11);
    const Run ghs_run = run_ghs(g, 11);
    std::printf("%6zu %9zu %12" PRIu64 " %12" PRIu64 " %8.2f%s\n",
                g.node_count(), g.edge_count(), kkt_run.messages,
                ghs_run.messages,
                double(ghs_run.messages) / double(kkt_run.messages),
                (kkt_run.correct && ghs_run.correct) ? "" : "  !! wrong MST");
  }
  std::printf("(ratios > 1 mean the o(m) algorithm wins; the crossover "
              "falls between n=256 and n=512)\n\n");

  std::printf("== density sweep at n = 256, random weights ==\n");
  std::printf("%9s %12s %12s\n", "m", "KKT msgs", "GHS msgs");
  for (std::size_t m : {512u, 2048u, 8192u, 32640u}) {
    const kkt::graph::Graph g = kkt::scenario::build_graph(
        kkt::scenario::GraphSpec::gnm(256, m), 2);
    const Run kkt_run = run_kkt(g, 12);
    const Run ghs_run = run_ghs(g, 12);
    std::printf("%9zu %12" PRIu64 " %12" PRIu64 "\n", m, kkt_run.messages,
                ghs_run.messages);
  }
  std::printf("(KKT stays flat in m -- the o(m) property; GHS with random "
              "weights is also cheap here,\n which is why the worst-case "
              "family above is the meaningful comparison)\n");
  return 0;
}
