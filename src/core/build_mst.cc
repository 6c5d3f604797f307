#include "core/build_mst.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <utility>

#include "graph/mst_oracle.h"
#include "proto/cycle_break.h"
#include "proto/tree_ops.h"

namespace kkt::core {
namespace {

// Phase budget (40c/C) lg n at failure exponent c = 2, for a search that
// succeeds per fragment and phase with probability at least C.
std::size_t paper_phase_budget(std::size_t n, double success) {
  const double lg_n = std::log2(static_cast<double>(std::max<std::size_t>(n, 2)));
  return static_cast<std::size_t>(std::ceil(80.0 / success * lg_n)) + 1;
}

// Resolves one potential cycle in a merged component (Section 4.2): leader
// election detects it (stalled echoes), the randomized unmark protocol
// breaks it, and if every coin disagreed a second election confirms and the
// cycle is removed wholesale by local timeout decisions.
// Returns {cycle_detected, hard_reset}.
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

// Runs phases until the forest spans, at most `max_phases`.
BuildStats build(sim::Network& net, graph::MarkedForest& forest,
                 ForestKind kind, const FindMinConfig& find_min_cfg,
                 const FindAnyConfig& find_any_cfg, std::size_t max_phases) {
  assert(forest.marked_edges().empty() && "forest must start empty");
  const graph::Graph& g = net.graph();
  BuildStats stats;
  if (g.node_count() == 0) return stats;

  const std::size_t graph_components = graph::components(g).second;

  // One scratch bundle for the whole build: the per-node protocol arenas
  // persist across phases, so each per-fragment op costs O(fragment).
  proto::ProtoScratch scratch;

  for (std::size_t phase = 1; phase <= max_phases; ++phase) {
    // Checked centrally, not charged to the network.
    const auto fragments = forest.fragments();
    if (fragments.size() == graph_components) {
      stats.spanning = true;
      break;
    }
    stats.per_phase.push_back(boruvka_phase(
        net, forest, kind, find_min_cfg, find_any_cfg,
        static_cast<std::uint32_t>(phase), fragments, scratch));
    ++stats.phases;
  }

  if (!stats.spanning) {
    stats.spanning = forest.components().second == graph_components;
  }
  return stats;
}

}  // namespace

PhaseInfo boruvka_phase(sim::Network& net, graph::MarkedForest& forest,
                        ForestKind kind, const FindMinConfig& find_min_cfg,
                        const FindAnyConfig& find_any_cfg, std::uint32_t epoch,
                        std::span<const std::vector<graph::NodeId>> fragments,
                        proto::ProtoScratch& scratch,
                        std::vector<char>* dirty) {
  PhaseInfo info;
  info.fragments = fragments.size();
  const std::uint64_t msgs_before = net.metrics().messages;
  const auto takes_part = [dirty](std::span<const graph::NodeId> nodes) {
    return dirty == nullptr ||
           std::any_of(nodes.begin(), nodes.end(),
                       [dirty](graph::NodeId v) { return (*dirty)[v] != 0; });
  };

  // Fragment structure as of phase start; marks placed now get `epoch` and
  // become tree edges next phase.
  proto::TreeOps ops(net, graph::TreeView(forest, epoch - 1), &scratch);
  sim::ParallelPhase par(net);
  for (const auto& frag : fragments) {
    if (!takes_part(frag)) continue;
    const auto branch = par.branch();
    const proto::ElectionResult el = ops.elect(frag);
    assert(el.leader != graph::kNoNode &&
           "fragments are trees at phase start");
    bool found = false;
    graph::EdgeNum edge_num = 0;
    if (kind == ForestKind::kMst) {
      const FindMinResult res = find_min(ops, el.leader, find_min_cfg);
      found = res.found;
      edge_num = res.edge_num;
    } else {
      const FindAnyResult res = find_any(ops, el.leader, find_any_cfg);
      found = res.found;
      edge_num = res.edge_num;
    }
    if (found) {
      if (ops.add_edge(forest, el.leader, edge_num, epoch)) ++info.merges;
    } else if (dirty != nullptr) {
      // No leaving edge (or search exhausted, w.h.p. none): clean.
      for (const graph::NodeId v : frag) (*dirty)[v] = 0;
    }
  }
  par.finish();

  if (kind == ForestKind::kSt) {
    // Unweighted choices can close one cycle per merged component (marks
    // of this phase included); components resolve logically in parallel.
    const graph::TreeView merged(forest, epoch);
    proto::TreeOps mops(net, merged, &scratch);
    sim::ParallelPhase mpar(net);
    for (const auto& comp : forest.fragments()) {
      if (!takes_part(comp)) continue;
      const auto branch = mpar.branch();
      const auto [detected, hard] = resolve_st_cycle(net, forest, mops, comp);
      info.cycles_detected += detected ? 1 : 0;
      info.cycles_hard_reset += hard ? 1 : 0;
    }
    mpar.finish();
  }

  info.messages = net.metrics().messages - msgs_before;
  return info;
}

BuildStats build_mst(sim::Network& net, graph::MarkedForest& forest,
                     const BuildMstConfig& cfg) {
  FindMinConfig find_min_cfg;
  find_min_cfg.w = cfg.w;
  find_min_cfg.capped = true;  // FindMin-C, as in the paper's Build MST
  // FindMin-C succeeds with probability >= 2/3 (Lemma 2); charged
  // conservatively at C = 1/2.
  return build(net, forest, ForestKind::kMst, find_min_cfg, {},
               paper_phase_budget(net.graph().node_count(), 0.5));
}

BuildStats build_st(sim::Network& net, graph::MarkedForest& forest) {
  FindAnyConfig find_any_cfg;
  find_any_cfg.capped = true;  // FindAny-C, as in the paper's Build ST
  // FindAny-C succeeds with probability >= 1/16 (Lemma 5), and a phase can
  // lose up to half its progress to cycle breaking: C = 1/32.
  return build(net, forest, ForestKind::kSt, {}, find_any_cfg,
               paper_phase_budget(net.graph().node_count(), 1.0 / 32));
}

}  // namespace kkt::core
