// Dynamic network: impromptu MST repair under churn (Theorem 1.2).
//
//   $ ./dynamic_network [n] [m] [ops] [seed] [workload]
//
// Maintains an exact MST of an evolving network on an *asynchronous*
// simulator. The update stream is a workload::UpdateTrace (uniform churn by
// default; pass uniform|hotspot|bridges|growth) applied op-by-op through a
// core::MaintenanceSession, which logs each repair action and its metric
// delta and checks the forest against a centralized oracle after every
// update. Per-update message costs are printed next to what the naive
// probe-all-edges strategy would have paid for the same deletion.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "baseline/naive_repair.h"
#include "core/session.h"
#include "graph/mst_oracle.h"
#include "scenario/scenario.h"
#include "sim/network.h"
#include "workload/generators.h"

int main(int argc, char** argv) {
  const std::size_t n = argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 96;
  const std::size_t m =
      argc > 2 ? std::strtoull(argv[2], nullptr, 10)
               : std::min(10 * n, n * (n - 1) / 2);
  const int ops = argc > 3 ? std::atoi(argv[3]) : 24;
  const std::uint64_t seed =
      argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 7;
  const auto workload_kind =
      kkt::workload::workload_from_name(argc > 5 ? argv[5] : "uniform");
  if (!workload_kind) {
    std::fprintf(stderr, "unknown workload '%s'\n", argv[5]);
    return 2;
  }

  // The maintained world as a scenario: G(n, m) on an asynchronous
  // transport, starting from the oracle MST (any correct starting tree
  // works; between updates nodes remember nothing but incident edges and
  // mark bits).
  kkt::scenario::Scenario sc;
  sc.graph = kkt::scenario::GraphSpec::gnm(n, m);
  sc.net = kkt::scenario::NetSpec::async();
  sc.seed = seed;
  sc.net_seed = seed;
  sc.premark_msf = true;
  kkt::scenario::World world = kkt::scenario::make_world(sc);
  kkt::graph::Graph& g = world.graph();
  kkt::graph::MarkedForest& forest = world.trees();

  // The update stream as a reproducible artifact (the same spec/seed pair
  // always yields this trace; see `kkt_lab churn --record` for files).
  const kkt::workload::UpdateTrace trace = kkt::workload::generate_trace(
      g, kkt::workload::WorkloadSpec::of(*workload_kind, ops),
      kkt::util::mix_seeds(seed, kkt::workload::kTraceSeedSalt));

  kkt::core::SessionOptions session_options;
  session_options.check_oracle = true;
  kkt::core::MaintenanceSession session(g, forest, world.network(),
                                        kkt::core::ForestKind::kMst,
                                        session_options);

  std::printf("maintaining the MST of a %zu-node, %zu-edge network; "
              "%zu updates (%s workload)\n\n",
              n, m, trace.ops.size(), trace.name.c_str());
  std::printf("%-4s %-26s %-10s %9s %9s %9s\n", "#", "update", "action",
              "msgs", "naive", "rounds");

  std::uint64_t total = 0, total_naive = 0;
  int op_index = 0;
  for (const kkt::core::UpdateOp& op : trace.ops) {
    ++op_index;
    char desc[64];
    std::uint64_t naive_cost = 0;
    const auto edge = g.find_edge(op.u, op.v);
    switch (op.kind) {
      case kkt::core::OpKind::kDelete: {
        const bool tree_edge = edge && forest.is_marked(*edge);
        std::snprintf(desc, sizeof desc, "delete {%u,%u}%s", op.u, op.v,
                      tree_edge ? " (tree)" : "");
        // What the naive strategy would pay for the same cut (measured on a
        // scratch copy of the world so costs do not mix).
        if (tree_edge) {
          kkt::graph::Graph g2 = g.clone();
          kkt::sim::Network net2(
              g2, seed + 100 + static_cast<std::uint64_t>(op_index),
              kkt::sim::DeliveryPolicy::async(16));
          g2.remove_edge(*edge);
          kkt::graph::MarkedForest f2(g2);
          for (auto e : forest.marked_edges()) {
            if (e != *edge) f2.mark_edge(e);
          }
          kkt::baseline::naive_find_min_cut(net2, f2, op.u);
          naive_cost = net2.metrics().messages;
        }
        break;
      }
      case kkt::core::OpKind::kInsert:
        std::snprintf(desc, sizeof desc, "insert {%u,%u} w=%" PRIu64, op.u,
                      op.v, op.weight);
        break;
      case kkt::core::OpKind::kWeightChange:
        std::snprintf(desc, sizeof desc, "reweigh {%u,%u} -> %" PRIu64, op.u,
                      op.v, op.weight);
        break;
    }

    const kkt::core::OpRecord& rec = session.apply(op);
    total += rec.cost.messages;
    total_naive += naive_cost;
    std::printf("%-4d %-26s %-10s %9" PRIu64 " %9" PRIu64 " %9" PRIu64
                "%s\n",
                op_index, desc, kkt::core::action_name(rec.action),
                rec.cost.messages, naive_cost, rec.cost.rounds,
                rec.oracle_ok ? "" : "  << MST MISMATCH");
  }

  std::printf("\ntotal impromptu messages: %" PRIu64
              " (naive deletions alone: %" PRIu64 ")\n", total, total_naive);
  std::printf("exactness: %s\n",
              session.oracle_failures() == 0
                  ? "MST matched the oracle after every update"
                  : "MISMATCHES detected");
  return session.oracle_failures() == 0 ? 0 : 1;
}
