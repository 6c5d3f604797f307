#include "core/build_st.h"

#include <cassert>
#include <cmath>

#include "graph/mst_oracle.h"
#include "proto/cycle_break.h"
#include "proto/tree_ops.h"

namespace kkt::core {
namespace {

std::vector<std::vector<graph::NodeId>> fragment_lists(
    const std::vector<std::uint32_t>& label, std::size_t count) {
  std::vector<std::vector<graph::NodeId>> frags(count);
  for (graph::NodeId v = 0; v < label.size(); ++v) {
    frags[label[v]].push_back(v);
  }
  return frags;
}

std::size_t paper_phase_budget(std::size_t n, int c) {
  // FindAny-C succeeds with probability >= 1/16 (Lemma 5), and a phase can
  // lose up to half its progress to cycle breaking, so budget with
  // C_eff = 1/32: (40c / C_eff) lg n.
  const double lg_n = std::log2(static_cast<double>(std::max<std::size_t>(n, 2)));
  return static_cast<std::size_t>(std::ceil(1280.0 * c * lg_n)) + 1;
}

}  // namespace

std::pair<bool, bool> resolve_st_cycle(sim::Network& net,
                                       graph::MarkedForest& forest,
                                       proto::TreeOps& ops,
                                       std::span<const graph::NodeId> nodes) {
  proto::ElectionResult el = ops.elect(nodes);
  if (el.leader != graph::kNoNode) return {false, false};
  assert(!el.cycle.empty());

  proto::CycleBreak breaker(forest, el.cycle);
  std::vector<graph::NodeId> members;
  members.reserve(el.cycle.size());
  for (const proto::CycleMember& m : el.cycle) members.push_back(m.node);
  net.run(breaker, members);

  if (breaker.half_unmarks() > 0) return {true, false};

  // "If there still is a cycle, all of the edges in the cycle are unmarked."
  // Verified by a second election; every cycle node then unmarks its two
  // cycle edges locally.
  el = ops.elect(nodes);
  if (el.leader != graph::kNoNode) return {true, false};
  for (const proto::CycleMember& m : el.cycle) {
    for (const graph::NodeId peer : m.cycle_neighbor) {
      const auto e = forest.graph().find_edge(m.node, peer);
      assert(e.has_value());
      forest.unmark_half(*e, m.node);
    }
  }
  return {true, true};
}

BuildStStats build_st(sim::Network& net, graph::MarkedForest& forest,
                      const BuildStConfig& cfg) {
  assert(forest.marked_edges().empty() && "forest must start empty");
  const graph::Graph& g = net.graph();
  const std::size_t n = g.node_count();
  BuildStStats stats;
  if (n == 0) return stats;

  const std::size_t graph_components = graph::components(g).second;
  const std::size_t max_phases = paper_phase_budget(n, cfg.c);

  FindAnyConfig fa;
  fa.c = cfg.c;
  fa.capped = true;  // FindAny-C, as in the paper's Build ST

  // One scratch bundle for the whole build (see core/build_mst.cc).
  proto::ProtoScratch scratch;

  for (std::size_t phase = 1; phase <= max_phases; ++phase) {
    auto [label, count] = forest.components();
    if (count == graph_components) {
      stats.spanning = true;
      break;
    }

    StPhaseInfo info;
    info.fragments = count;
    const std::uint64_t msgs_before = net.metrics().messages;

    const graph::TreeView tree(forest, static_cast<std::uint32_t>(phase) - 1);
    proto::TreeOps ops(net, tree, &scratch);

    sim::ParallelPhase par(net);
    for (const auto& frag : fragment_lists(label, count)) {
      const auto branch = par.branch();
      const proto::ElectionResult el = ops.elect(frag);
      assert(el.leader != graph::kNoNode &&
             "fragments are trees at phase start");
      const FindAnyResult fa_res = find_any(ops, el.leader, fa);
      if (fa_res.found) {
        if (ops.add_edge(forest, el.leader, fa_res.edge_num,
                         static_cast<std::uint32_t>(phase))) {
          ++info.merges;
        }
      }
    }
    par.finish();

    // Post-merge cycle resolution on the merged components (marks of this
    // phase included). Runs logically in parallel across components.
    {
      auto [mlabel, mcount] = forest.components();
      const graph::TreeView merged(forest, static_cast<std::uint32_t>(phase));
      proto::TreeOps mops(net, merged);
      sim::ParallelPhase mpar(net);
      for (const auto& comp : fragment_lists(mlabel, mcount)) {
        const auto branch = mpar.branch();
        const auto [detected, hard] =
            resolve_st_cycle(net, forest, mops, comp);
        info.cycles_detected += detected ? 1 : 0;
        info.cycles_hard_reset += hard ? 1 : 0;
      }
      mpar.finish();
    }

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
