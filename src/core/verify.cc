#include "core/verify.h"

#include <cassert>

#include "core/hp_test_out.h"
#include "proto/tree_ops.h"

namespace kkt::core {

VerifySpanningResult verify_spanning(sim::Network& net,
                                     const graph::MarkedForest& forest) {
  VerifySpanningResult res;
  res.properly_marked = forest.properly_marked();  // local bit checks
  res.acyclic = true;
  res.maximal = true;

  const graph::TreeView tree(forest);
  proto::TreeOps ops(net, tree);
  const auto comps = forest.fragments();
  res.components = comps.size();

  sim::ParallelPhase par(net);
  for (const auto& comp : comps) {
    const auto branch = par.branch();
    const proto::ElectionResult el = ops.elect(comp);
    if (el.leader == graph::kNoNode) {
      res.acyclic = false;  // stalled echoes == cycle (Section 4.2)
    } else if (hp_test_out_any(ops, el.leader).leaving) {
      res.maximal = false;  // an edge leaves this component: not maximal
    }
  }
  par.finish();
  return res;
}

VerifyMstResult verify_mst(sim::Network& net, graph::MarkedForest& forest,
                           std::size_t samples) {
  VerifyMstResult res;
  res.spanning = verify_spanning(net, forest);
  if (!res.spanning.spanning_forest()) return res;

  const auto tree_edges = forest.marked_edges();
  if (tree_edges.empty()) return res;
  if (samples == 0 || samples > tree_edges.size()) {
    samples = tree_edges.size();
  }

  const graph::Graph& g = forest.graph();
  util::Rng& rng = net.node_rng(0);
  for (std::size_t s = 0; s < samples; ++s) {
    const graph::EdgeIdx e =
        samples == tree_edges.size()
            ? tree_edges[s]
            : tree_edges[rng.below(tree_edges.size())];
    // Conceptually remove e; both endpoints observe this locally. The
    // re-mark restores the edge's epoch: every marking flow gives both
    // halves one epoch, so mark_epoch(e) is each half's.
    const graph::Edge ed = g.edge(e);
    const std::uint32_t epoch = forest.mark_epoch(e);
    forest.unmark_half(e, ed.u);
    forest.unmark_half(e, ed.v);

    proto::TreeOps ops(net, graph::TreeView(forest));
    const FindMinResult fm = find_min(ops, ed.u);
    ++res.edges_checked;
    // The cut defined by removing e must have e itself as its minimum.
    if (!fm.found || fm.edge_num != g.edge_num(e)) ++res.violations;

    forest.mark_half(e, ed.u, epoch);
    forest.mark_half(e, ed.v, epoch);
  }
  return res;
}

}  // namespace kkt::core
