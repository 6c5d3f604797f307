#include "scenario/headtohead.h"

#include <algorithm>
#include <utility>

#include "baseline/flood_st.h"
#include "baseline/ghs.h"
#include "baseline/naive_repair.h"
#include "core/build_mst.h"
#include "core/find_min.h"
#include "core/session.h"
#include "graph/forest.h"
#include "graph/mst_oracle.h"
#include "proto/tree_ops.h"
#include "report/fit.h"
#include "scenario/sweep.h"
#include "util/rusage.h"

namespace kkt::scenario {

namespace {

// Deterministic victim rule shared by both repair competitors: rotate
// through the current tree so consecutive deletions damage different
// regions, independent of algorithm.
graph::EdgeIdx pick_victim(const std::vector<graph::EdgeIdx>& tree, int i) {
  return tree[(tree.size() / 3 + 7 * static_cast<std::size_t>(i)) %
              tree.size()];
}

Scenario cell_scenario(const HeadToHeadConfig& cfg, std::size_t n,
                       bool premark) {
  Scenario sc;
  if (cfg.complete_graphs) {
    sc.graph = GraphSpec::complete(n);
  } else {
    sc.graph = GraphSpec::gnm(n, cfg.density * n);
    sc.graph.clamp_m = true;
  }
  sc.net.kind = cfg.net;
  sc.premark_msf = premark;
  return sc;
}

// The tree edge that splits the spanning tree most evenly, and a node on
// the smaller-ID-free side (deterministic; ties break toward the smaller
// edge index). Severing a balanced edge makes the orphaned side scale with
// n, so fitted exponents measure the algorithms rather than the accident of
// a lopsided cut.
std::pair<graph::EdgeIdx, graph::NodeId> balanced_cut(const World& w) {
  const auto tree = w.forest->marked_edges();
  const std::size_t n = w.g->node_count();
  std::vector<std::vector<std::pair<graph::NodeId, graph::EdgeIdx>>> adj(n);
  for (const graph::EdgeIdx e : tree) {
    const graph::Edge& ed = w.g->edge(e);
    adj[ed.u].emplace_back(ed.v, e);
    adj[ed.v].emplace_back(ed.u, e);
  }
  // Iterative DFS from node 0: parents, then subtree sizes bottom-up.
  std::vector<std::size_t> size(n, 1);
  std::vector<graph::NodeId> parent(n, 0);
  std::vector<graph::EdgeIdx> parent_edge(n, graph::kNoEdge);
  std::vector<bool> seen(n, false);
  std::vector<graph::NodeId> order, stack{0};
  order.reserve(n);
  seen[0] = true;
  while (!stack.empty()) {
    const graph::NodeId u = stack.back();
    stack.pop_back();
    order.push_back(u);
    for (const auto& [v, e] : adj[u]) {
      if (seen[v]) continue;
      seen[v] = true;
      parent[v] = u;
      parent_edge[v] = e;
      stack.push_back(v);
    }
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (*it != 0) size[parent[*it]] += size[*it];
  }
  graph::EdgeIdx best = tree.front();
  graph::NodeId best_side = w.g->edge(best).u;
  std::size_t best_gap = n + 1;
  for (const graph::NodeId v : order) {
    if (v == 0 || parent_edge[v] == graph::kNoEdge) continue;
    const std::size_t s = size[v];
    const std::size_t gap = s > n - s ? 2 * s - n : n - 2 * s;
    if (gap < best_gap || (gap == best_gap && parent_edge[v] < best)) {
      best_gap = gap;
      best = parent_edge[v];
      best_side = v;
    }
  }
  return {best, best_side};
}

// Severs the balanced tree edge and returns the orphaned initiator (the
// cut both find_min competitors search). The graph keeps the edge, so it
// remains a reconnection candidate for both.
graph::NodeId sever_tree_edge(World& w) {
  const auto [victim, side] = balanced_cut(w);
  w.forest->clear_edge(victim);
  return side;
}

void naive_delete_and_repair(World& w, int i) {
  const auto tree = w.forest->marked_edges();
  if (tree.empty()) return;
  const graph::EdgeIdx victim = pick_victim(tree, i);
  const graph::NodeId root = w.g->edge(victim).u;
  w.g->remove_edge(victim);
  w.forest->clear_edge(victim);
  const auto res = baseline::naive_find_min_cut(*w.net, *w.forest, root);
  if (res.found) {
    // Mark directly (both halves): the baseline's bill is the search.
    for (graph::EdgeIdx e : w.g->alive_edge_indices()) {
      if (w.g->edge_num(e) == res.edge_num) w.forest->mark_edge(e);
    }
  }
}

// The k victims of one repair_batch cell: tree edges spread evenly around
// the premarked MST (the pick_victim rotation generalized to a batch), so
// the damage is distributed rather than an accident of index order. Both
// competitors call this on the same premarked world and therefore delete
// the same edges.
std::vector<graph::EdgeIdx> batch_victims(const World& w, std::size_t k) {
  const auto tree = w.forest->marked_edges();
  std::vector<graph::EdgeIdx> victims;
  if (tree.empty()) return victims;
  if (k > tree.size()) k = tree.size();
  const std::size_t step = std::max<std::size_t>(1, tree.size() / k);
  victims.reserve(k);
  for (std::size_t j = 0; j < k; ++j) {
    victims.push_back(tree[(tree.size() / 3 + j * step) % tree.size()]);
  }
  return victims;
}

struct SeriesSpec {
  const char* task;
  const char* algo;
  bool premark;
  ScenarioBody body;
  // Per-seed metric totals divide by this before averaging (repair tasks
  // report per-operation means).
  double op_divisor = 1.0;
  BuildCheck check = BuildCheck::kNone;
};

// Runs one cell: `seeds` worlds of `sc` with seeds first_seed,
// first_seed + 1, ... on a SweepExecutor (a pinned net_seed stays pinned,
// as in run_sweep). Averages their model costs into `cell` (per-seed
// totals divided by op_divisor as well), stamps its observables under
// cfg.measure and appends it to the result, with an error line when a
// world fails `check`.
void run_cell(const HeadToHeadConfig& cfg, HeadToHeadCell cell,
              const Scenario& sc, int seeds, const ScenarioBody& body,
              double op_divisor, BuildCheck check, HeadToHeadResult& result) {
  struct Slot {
    sim::Metrics metrics;
    std::uint64_t wall_ns = 0;
    std::uint64_t peak_rss_kb = 0;
    bool ok = true;
  };
  const std::vector<Slot> slots =
      SweepExecutor(cfg.threads).map(seeds, [&](int i) {
        Scenario run = sc;
        run.seed = cfg.first_seed + static_cast<std::uint64_t>(i);
        Slot slot;
        const std::uint64_t t0 = cfg.measure ? util::wall_now_ns() : 0;
        World w = make_world(run);
        body(w);
        if (cfg.measure) {
          slot.wall_ns = util::wall_now_ns() - t0;
          slot.peak_rss_kb = util::peak_rss_kb();
        }
        slot.metrics = w.net->metrics();
        slot.ok = build_cell_correct(w, check);
        return slot;
      });
  int wrong = 0;
  std::uint64_t wall_ns = 0;
  cell.seeds = static_cast<int>(slots.size());
  for (const Slot& slot : slots) {
    cell.messages += static_cast<double>(slot.metrics.messages);
    cell.bits += static_cast<double>(slot.metrics.message_bits);
    cell.rounds += static_cast<double>(slot.metrics.rounds);
    cell.bcast_echoes += static_cast<double>(slot.metrics.broadcast_echoes);
    wall_ns += slot.wall_ns;
    cell.peak_rss_kb = std::max(cell.peak_rss_kb, slot.peak_rss_kb);
    if (!slot.ok) ++wrong;
  }
  const double denom =
      static_cast<double>(slots.empty() ? 1 : slots.size()) * op_divisor;
  cell.messages /= denom;
  cell.bits /= denom;
  cell.rounds /= denom;
  cell.bcast_echoes /= denom;
  if (!slots.empty()) cell.wall_ns = wall_ns / slots.size();
  if (wrong > 0) {
    result.errors.push_back(
        cell.task + "/" + cell.algo + "/n=" + std::to_string(cell.n) + ": " +
        std::to_string(wrong) + " of " + std::to_string(cell.seeds) +
        (check == BuildCheck::kMsf ? " builds differ from the oracle MSF"
                                   : " builds do not span"));
  }
  result.cells.push_back(std::move(cell));
}

// Fits the message series of the (task, algo) cells over their n.
void fit_series(HeadToHeadResult& result, const std::string& task,
                const std::string& algo) {
  std::vector<double> xs, ys;
  for (const HeadToHeadCell& c : result.cells) {
    if (c.task != task || c.algo != algo) continue;
    xs.push_back(static_cast<double>(c.n));
    ys.push_back(c.messages);
  }
  if (const auto fit = report::fit_power_law(xs, ys)) {
    result.fits.push_back(HeadToHeadFit{task, algo, fit->exponent, fit->coeff,
                                        fit->r2, fit->points});
  }
}

std::vector<SeriesSpec> make_series(const HeadToHeadConfig& cfg) {
  const int ops = cfg.ops > 0 ? cfg.ops : 1;
  std::vector<SeriesSpec> series;
  series.push_back({"build_mst", "kkt", false,
                    [](World& w) { core::build_mst(w.network(), w.trees()); },
                    1.0, BuildCheck::kMsf});
  series.push_back(
      {"build_mst", "ghs", false,
       [](World& w) { baseline::ghs_build_mst(w.network(), w.trees()); },
       1.0, BuildCheck::kMsf});
  series.push_back(
      {"build_mst", "flood", false,
       [](World& w) { baseline::flood_build_st(w.network(), w.trees()); },
       1.0, BuildCheck::kSpanning});
  series.push_back({"find_min", "kkt", true,
                    [](World& w) {
                      const graph::NodeId root = sever_tree_edge(w);
                      proto::TreeOps ops_(w.network(),
                                          graph::TreeView(w.trees()));
                      core::find_min(ops_, root);
                    },
                    1.0});
  series.push_back({"find_min", "naive", true,
                    [](World& w) {
                      const graph::NodeId root = sever_tree_edge(w);
                      baseline::naive_find_min_cut(w.network(), w.trees(),
                                                   root);
                    },
                    1.0});
  series.push_back({"repair_delete", "kkt", true,
                    [ops](World& w) {
                      core::MaintenanceSession session(
                          w.graph(), w.trees(), w.network(),
                          core::ForestKind::kMst);
                      for (int i = 0; i < ops; ++i) {
                        const auto tree = w.forest->marked_edges();
                        if (tree.empty()) break;
                        const graph::Edge& ed =
                            w.g->edge(pick_victim(tree, i));
                        session.apply(core::UpdateOp::erase(ed.u, ed.v));
                      }
                    },
                    static_cast<double>(ops)});
  series.push_back({"repair_delete", "naive", true,
                    [ops](World& w) {
                      for (int i = 0; i < ops; ++i) {
                        naive_delete_and_repair(w, i);
                      }
                    },
                    static_cast<double>(ops)});
  return series;
}

}  // namespace

bool build_cell_correct(const World& w, BuildCheck check) {
  switch (check) {
    case BuildCheck::kNone:
      return true;
    case BuildCheck::kMsf:
      return graph::same_edge_set(w.forest->marked_edges(),
                                  graph::kruskal_msf(*w.g));
    case BuildCheck::kSpanning:
      return w.forest->is_spanning_forest();
  }
  return false;
}

const HeadToHeadFit* HeadToHeadResult::fit(
    std::string_view task, std::string_view algo) const noexcept {
  for (const HeadToHeadFit& f : fits) {
    if (f.task == task && f.algo == algo) return &f;
  }
  return nullptr;
}

HeadToHeadResult run_headtohead(const HeadToHeadConfig& cfg) {
  HeadToHeadResult result;
  result.config = cfg;

  // A cell needs a spanning tree with at least one edge to sever; sizes
  // below 2 cannot produce one (and n = 0 cannot even build a graph), so
  // they are dropped from the grid rather than crashing mid-sweep. CLIs
  // validate and report before getting here.
  std::vector<std::size_t> sizes;
  for (const std::size_t n : cfg.sizes) {
    if (n >= 2) sizes.push_back(n);
  }

  // The instance edge count is a function of (family, n, first_seed) only
  // -- identical for every series -- so build each size's graph once for
  // `m` instead of once per (series, size).
  std::vector<std::size_t> edge_counts;
  edge_counts.reserve(sizes.size());
  for (const std::size_t n : sizes) {
    edge_counts.push_back(
        build_graph(cell_scenario(cfg, n, false).graph, cfg.first_seed)
            .edge_count());
  }

  for (const SeriesSpec& spec : make_series(cfg)) {
    for (std::size_t i = 0; i < sizes.size(); ++i) {
      run_cell(cfg, {.task = spec.task, .algo = spec.algo, .n = sizes[i],
                     .m = edge_counts[i]},
               cell_scenario(cfg, sizes[i], spec.premark), cfg.seeds,
               spec.body, spec.op_divisor, spec.check, result);
    }
    fit_series(result, spec.task, spec.algo);
  }

  // Repair-vs-recompute (E18): fixed instance (the largest grid size),
  // batch size k on the x axis. "kkt" repairs the k-deletion batch in
  // place (apply_batch -> delete_batch's phased Boruvka completion);
  // "rebuild" deletes the same edges, forgets the forest, and rebuilds
  // from scratch -- the recompute bill is ~flat in k, the repair bill
  // grows with k, and the fitted crossover is where they meet.
  if (!sizes.empty()) {
    std::size_t bi = 0;
    for (std::size_t i = 1; i < sizes.size(); ++i) {
      if (sizes[i] > sizes[bi]) bi = i;
    }
    const std::size_t nb = sizes[bi];
    const std::size_t mb = edge_counts[bi];
    std::vector<std::size_t> ks;
    for (std::size_t k = 1; k <= nb / 4; k *= 2) ks.push_back(k);
    const std::pair<const char*, ScenarioBody (*)(std::size_t)>
        batch_algos[] = {
            {"kkt",
             [](std::size_t k) -> ScenarioBody {
               return [k](World& w) {
                 core::MaintenanceSession session(w.graph(), w.trees(),
                                                  w.network(),
                                                  core::ForestKind::kMst);
                 std::vector<core::UpdateOp> dels;
                 for (const graph::EdgeIdx e : batch_victims(w, k)) {
                   const graph::Edge& ed = w.g->edge(e);
                   dels.push_back(core::UpdateOp::erase(ed.u, ed.v));
                 }
                 session.apply_batch(dels);
               };
             }},
            {"rebuild",
             [](std::size_t k) -> ScenarioBody {
               return [k](World& w) {
                 for (const graph::EdgeIdx e : batch_victims(w, k)) {
                   w.g->remove_edge(e);
                 }
                 w.forest->clear_all();
                 core::build_mst(w.network(), w.trees());
               };
             }},
        };
    for (const auto& [algo, make_body] : batch_algos) {
      for (const std::size_t k : ks) {
        // x axis: batch size, not node count.
        run_cell(cfg, {.task = "repair_batch", .algo = algo, .n = k, .m = mb},
                 cell_scenario(cfg, nb, /*premark=*/true), cfg.seeds,
                 make_body(k), 1.0, BuildCheck::kNone, result);
      }
      fit_series(result, "repair_batch", algo);
    }
  }

  // The web-scale task: BuildMST only, the igridlong grid+long-links family,
  // kkt vs ghs, one run per cell (rationale on HeadToHeadConfig::xl_sizes).
  std::vector<std::size_t> xl_sizes;
  for (const std::size_t n : cfg.xl_sizes) {
    if (n >= 2) xl_sizes.push_back(n);
  }
  if (!xl_sizes.empty()) {
    const auto xl_spec = [&cfg](std::size_t n) {
      return GraphSpec::igridlong(n, cfg.xl_long_links);
    };
    std::vector<std::size_t> xl_m;
    xl_m.reserve(xl_sizes.size());
    for (const std::size_t n : xl_sizes) {
      // Each temporary graph writes its stored rows (O(n + m), ~128 MiB at
      // n = 1048576) and frees them before the next size is built.
      xl_m.push_back(build_graph(xl_spec(n), cfg.first_seed).edge_count());
    }
    const std::pair<const char*, ScenarioBody> xl_algos[] = {
        {"kkt", [](World& w) { core::build_mst(w.network(), w.trees()); }},
        {"ghs",
         [](World& w) { baseline::ghs_build_mst(w.network(), w.trees()); }},
    };
    for (const auto& [algo, body] : xl_algos) {
      const bool capped = std::string_view(algo) == "ghs";
      for (std::size_t i = 0; i < xl_sizes.size(); ++i) {
        const std::size_t n = xl_sizes[i];
        if (capped && cfg.xl_ghs_cap != 0 && n > cfg.xl_ghs_cap) continue;
        Scenario sc;
        sc.graph = xl_spec(n);
        sc.net.kind = cfg.net;
        run_cell(cfg, {.task = "build_mst_xl", .algo = algo, .n = n,
                       .m = xl_m[i]},
                 sc, /*seeds=*/1, body, 1.0, BuildCheck::kMsf, result);
      }
      fit_series(result, "build_mst_xl", algo);
    }
  }
  return result;
}

report::ResultFile HeadToHeadResult::to_result_file() const {
  report::ResultFile f;
  f.tool = "kkt_headtohead";

  report::RunRecord meta;
  meta.name = "headtohead-meta";
  meta.counters["complete_graphs"] = config.complete_graphs ? 1.0 : 0.0;
  meta.counters["density"] = static_cast<double>(config.density);
  meta.counters["net_kind"] = static_cast<double>(config.net);
  meta.counters["first_seed"] = static_cast<double>(config.first_seed);
  meta.counters["seeds"] = static_cast<double>(config.seeds);
  meta.counters["ops"] = static_cast<double>(config.ops);
  // XL provenance only when the task actually ran: the default artifact
  // keeps its pre-XL bytes.
  if (!config.xl_sizes.empty()) {
    meta.counters["xl_long_links"] = static_cast<double>(config.xl_long_links);
  }
  // The E18 batch sweep always runs; the counter keeps artifacts stable.
  meta.counters["repair_batch"] = 1.0;
  f.records.push_back(std::move(meta));

  for (const HeadToHeadCell& c : cells) {
    report::RunRecord r;
    r.name = "headtohead/" + c.task + "/" + c.algo +
             "/n=" + std::to_string(c.n);
    r.counters["n"] = static_cast<double>(c.n);
    r.counters["m"] = static_cast<double>(c.m);
    r.counters["seeds"] = static_cast<double>(c.seeds);
    r.counters["messages"] = c.messages;
    r.counters["bits"] = c.bits;
    r.counters["rounds"] = c.rounds;
    r.counters["bcast_echoes"] = c.bcast_echoes;
    // v2 observables: zero (= not measured) serializes to nothing, so
    // counter-only artifacts stay byte-stable.
    r.wall_ns = c.wall_ns;
    r.peak_rss_kb = c.peak_rss_kb;
    if (c.wall_ns != 0) r.iters = static_cast<std::uint64_t>(c.seeds);
    f.records.push_back(std::move(r));
  }
  for (const HeadToHeadFit& fit : fits) {
    report::RunRecord r;
    r.name = "headtohead-fit/" + fit.task + "/" + fit.algo;
    r.counters["exponent"] = fit.exponent;
    r.counters["coeff"] = fit.coeff;
    r.counters["r2"] = fit.r2;
    r.counters["points"] = static_cast<double>(fit.points);
    f.records.push_back(std::move(r));
  }
  return f;
}

}  // namespace kkt::scenario
