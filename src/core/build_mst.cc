#include "core/build_mst.h"

#include <cassert>
#include <cmath>

#include "graph/mst_oracle.h"
#include "proto/tree_ops.h"

namespace kkt::core {
namespace {

// Groups nodes by component label.
std::vector<std::vector<graph::NodeId>> fragment_lists(
    const std::vector<std::uint32_t>& label, std::size_t count) {
  std::vector<std::vector<graph::NodeId>> frags(count);
  for (graph::NodeId v = 0; v < label.size(); ++v) {
    frags[label[v]].push_back(v);
  }
  return frags;
}

std::size_t paper_phase_budget(std::size_t n, int c) {
  // (40c/C) lg n with C the success probability of FindMin-C (>= 2/3 by
  // Lemma 2; we charge conservatively with C = 1/2).
  const double lg_n = std::log2(static_cast<double>(std::max<std::size_t>(n, 2)));
  return static_cast<std::size_t>(std::ceil(80.0 * c * lg_n)) + 1;
}

}  // namespace

BuildStats build_mst(sim::Network& net, graph::MarkedForest& forest,
                     const BuildMstConfig& cfg) {
  assert(forest.marked_edges().empty() && "forest must start empty");
  const graph::Graph& g = net.graph();
  const std::size_t n = g.node_count();
  BuildStats stats;
  if (n == 0) return stats;

  const std::size_t graph_components = graph::components(g).second;
  const std::size_t max_phases = paper_phase_budget(n, cfg.c);

  FindMinConfig fm;
  fm.w = cfg.w;
  fm.c = cfg.c;
  fm.capped = true;  // FindMin-C, as in the paper's Build MST

  // One scratch bundle for the whole build: the per-node protocol arenas
  // persist across phases, so each per-fragment op costs O(fragment).
  proto::ProtoScratch scratch;

  for (std::size_t phase = 1; phase <= max_phases; ++phase) {
    // Checked centrally, not charged to the network.
    auto [label, count] = forest.components();
    if (count == graph_components) {
      stats.spanning = true;
      break;
    }

    PhaseInfo info;
    info.fragments = count;
    const std::uint64_t msgs_before = net.metrics().messages;

    // Fragment structure as of phase start; marks placed now get epoch
    // `phase` and become tree edges next phase.
    const graph::TreeView tree(forest, static_cast<std::uint32_t>(phase) - 1);
    proto::TreeOps ops(net, tree, &scratch);

    sim::ParallelPhase par(net);
    for (const auto& frag : fragment_lists(label, count)) {
      const auto branch = par.branch();
      const proto::ElectionResult el = ops.elect(frag);
      assert(el.leader != graph::kNoNode && "MST fragments are trees");
      const FindMinResult fm_res = find_min(ops, el.leader, fm);
      if (fm_res.found) {
        if (ops.add_edge(forest, el.leader, fm_res.edge_num,
                         static_cast<std::uint32_t>(phase))) {
          ++info.merges;
        }
      }
    }
    par.finish();

    info.messages = net.metrics().messages - msgs_before;
    info.max_rounds = par.max_branch_rounds();
    stats.per_phase.push_back(info);
    ++stats.phases;
  }

  if (!stats.spanning) {
    stats.spanning = forest.components().second == graph_components;
  }
  return stats;
}

}  // namespace kkt::core
