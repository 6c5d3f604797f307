#include "bench_suites.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "baseline/flood_st.h"
#include "baseline/ghs.h"
#include "baseline/naive_repair.h"
#include "core/build_mst.h"
#include "core/find_any.h"
#include "core/find_min.h"
#include "core/hp_test_out.h"
#include "core/sample_find_min.h"
#include "core/session.h"
#include "core/test_out.h"
#include "hashing/odd_hash.h"
#include "proto/tree_ops.h"
#include "scenario/scenario.h"
#include "util/rng.h"
#include "workload/churn.h"

namespace kkt::bench {
namespace {

using Counters = std::map<std::string, double>;
using scenario::NetKind;
using scenario::World;

class Recorder {
 public:
  // Appends the record `<bm>[/<arg>]/iterations:1<suffix>` and returns its
  // counters (valid until the next add).
  Counters& add(std::string_view bm, std::string_view arg = {},
                std::string_view suffix = {}) {
    std::string name(bm);
    if (!arg.empty()) name.append("/").append(arg);
    name.append("/iterations:1").append(suffix);
    report::RunRecord& rec = run_.file.records.emplace_back();
    rec.name = std::move(name);
    return rec.counters;
  }
  Counters& add(std::string_view bm, std::size_t arg) {
    return add(bm, std::to_string(arg));
  }

  // A failed correctness check on the last record fails the whole run.
  void expect(bool ok, std::string_view what) {
    if (!ok) {
      run_.errors.push_back(run_.file.records.back().name + ": " +
                            std::string(what));
    }
  }

  SuiteRun take() { return std::move(run_); }

 private:
  SuiteRun run_;
};

// The standard observables of a finished run, with the per-tag split of
// envelopes and bits (which protocol spends the budget).
void standard_counters(Counters& c, const sim::Metrics& m, std::size_t n,
                       std::size_t edges) {
  c["n"] = static_cast<double>(n);
  c["m"] = static_cast<double>(edges);
  c["messages"] = static_cast<double>(m.messages);
  c["msgs_per_n"] = static_cast<double>(m.messages) / static_cast<double>(n);
  c["msgs_per_m"] = edges ? static_cast<double>(m.messages) /
                                static_cast<double>(edges)
                          : 0.0;
  c["rounds"] = static_cast<double>(m.rounds);
  c["bcast_echoes"] = static_cast<double>(m.broadcast_echoes);
  c["bits"] = static_cast<double>(m.message_bits);
  c["peak_state_bits"] = static_cast<double>(m.peak_node_state_bits);
  for (std::size_t t = 0; t < m.per_tag.size(); ++t) {
    if (m.per_tag[t] == 0) continue;
    const std::string name = sim::tag_name(static_cast<sim::Tag>(t));
    c["msgs." + name] = static_cast<double>(m.per_tag[t]);
    c["bits." + name] = static_cast<double>(m.per_tag_bits[t]);
  }
}

// Connected G(n, m): graph from `seed`, network from seed ^ kNetSeedSalt.
scenario::Scenario gnm_scenario(std::size_t n, std::size_t m,
                                std::uint64_t seed,
                                NetKind kind = NetKind::kSync) {
  scenario::Scenario sc;
  sc.graph = scenario::GraphSpec::gnm(n, m);
  sc.net.kind = kind;
  sc.seed = seed;
  return sc;
}

World gnm_world(std::size_t n, std::size_t m, std::uint64_t seed,
                NetKind kind = NetKind::kSync) {
  return scenario::make_world(gnm_scenario(n, m, seed, kind));
}

// A marked MSF split in two by clearing one tree edge; FindAny, FindMin and
// TestOut search the cut from `root`.
struct CutWorld {
  World w;
  graph::NodeId root = 0;
};

// Clears tree edge marked_edges()[size / den] and returns it.
graph::EdgeIdx split_tree(World& w, std::size_t den) {
  const auto tree = w.forest->marked_edges();
  const graph::EdgeIdx split = tree[tree.size() / den];
  w.forest->clear_edge(split);
  return split;
}

// ---------------------------------------------------------------------------
// build_mst -- E1 (Theorem 1.1, Lemma 3), E11 (memory), E13 (phase decay).
// KKT's messages grow ~ n log^2 n / log log n independent of m; GHS grows
// with m.
// ---------------------------------------------------------------------------

void suite_build_mst(Recorder& r) {
  // E1a: KKT on moderately dense G(n, m ~ n^1.5).
  for (const std::size_t n : {64, 128, 256, 512, 1024}) {
    const auto m = std::min(n * (n - 1) / 2,
                            static_cast<std::size_t>(std::pow(n, 1.5)));
    World w = gnm_world(n, m, 42);
    const core::BuildStats stats = core::build_mst(*w.net, *w.forest);
    Counters& c = r.add("BM_BuildMst_Kkt_N15", n);
    r.expect(stats.spanning, "did not span");
    standard_counters(c, w.net->metrics(), n, m);
    c["phases"] = static_cast<double>(stats.phases);
  }
  // E1b: KKT on complete graphs: messages stay ~E1a despite m = n^2/2.
  for (const std::size_t n : {64, 128, 256, 512}) {
    const std::size_t m = n * (n - 1) / 2;
    World w = gnm_world(n, m, 43);
    const core::BuildStats stats = core::build_mst(*w.net, *w.forest);
    Counters& c = r.add("BM_BuildMst_Kkt_Complete", n);
    r.expect(stats.spanning, "did not span");
    standard_counters(c, w.net->metrics(), n, m);
    c["phases"] = static_cast<double>(stats.phases);
  }
  // E1c: GHS on the same complete graphs (random weights: its cheap regime;
  // the crossover suite runs its worst case).
  for (const std::size_t n : {64, 128, 256, 512}) {
    const std::size_t m = n * (n - 1) / 2;
    World w = gnm_world(n, m, 43);
    const auto stats = baseline::ghs_build_mst(*w.net, *w.forest);
    Counters& c = r.add("BM_BuildMst_Ghs_Complete", n);
    r.expect(stats.spanning, "did not span");
    standard_counters(c, w.net->metrics(), n, m);
    c["phases"] = static_cast<double>(stats.phases);
  }
  // E13: phases needed versus lg n, and the fragments left at the midpoint
  // (Claim 1 of Lemma 3: geometric decay).
  for (const std::size_t n : {128, 256, 512, 1024}) {
    World w = gnm_world(n, 4 * n, 44);
    const core::BuildStats stats = core::build_mst(*w.net, *w.forest);
    Counters& c = r.add("BM_BuildMst_PhaseDecay", n);
    r.expect(stats.spanning, "did not span");
    standard_counters(c, w.net->metrics(), n, 4 * n);
    c["phases"] = static_cast<double>(stats.phases);
    c["phases_per_lg_n"] = static_cast<double>(stats.phases) /
                           std::log2(static_cast<double>(n));
    const std::size_t mid = stats.per_phase.size() / 2;
    c["fragments_at_midpoint"] = static_cast<double>(
        stats.per_phase.empty() ? 0 : stats.per_phase[mid].fragments);
  }
  // E11: peak per-node protocol state (bits) during a build -- the
  // O(log(n+u)) memory claim of Theorem 1.1.
  for (const std::size_t n : {128, 512, 1024}) {
    World w = gnm_world(n, 8 * n, 45);
    const core::BuildStats stats = core::build_mst(*w.net, *w.forest);
    Counters& c = r.add("BM_BuildMst_NodeMemory", n);
    r.expect(stats.spanning, "did not span");
    standard_counters(c, w.net->metrics(), n, 8 * n);
  }
}

// ---------------------------------------------------------------------------
// build_st -- E3 (Theorem 1.1, Lemma 6): O(n log n) messages vs the
// Theta(m) flooding baseline.
// ---------------------------------------------------------------------------

void suite_build_st(Recorder& r) {
  for (const std::size_t n : {64, 128, 256, 512}) {
    const std::size_t m = n * (n - 1) / 2;  // complete: worst for flooding
    World w = gnm_world(n, m, 60);
    const core::BuildStats stats = core::build_st(*w.net, *w.forest);
    Counters& c = r.add("BM_BuildSt_Kkt", n);
    r.expect(stats.spanning, "did not span");
    standard_counters(c, w.net->metrics(), n, m);
    c["phases"] = static_cast<double>(stats.phases);
    std::size_t cycles = 0;
    for (const auto& ph : stats.per_phase) cycles += ph.cycles_detected;
    c["cycles_detected"] = static_cast<double>(cycles);
  }
  for (const std::size_t n : {64, 128, 256, 512}) {
    const std::size_t m = n * (n - 1) / 2;
    World w = gnm_world(n, m, 60);
    const auto stats = baseline::flood_build_st(*w.net, *w.forest);
    Counters& c = r.add("BM_BuildSt_Flooding", n);
    r.expect(stats.spanning, "did not span");
    standard_counters(c, w.net->metrics(), n, m);
  }
  // Density sweep at n = 256: KKT-ST flat in m, flooding linear in m.
  constexpr std::size_t kN = 256;
  for (const std::size_t m : {512, 2048, 8192, 32640}) {
    World w = gnm_world(kN, m, 61);
    const core::BuildStats stats = core::build_st(*w.net, *w.forest);
    Counters& c = r.add("BM_BuildSt_Kkt_DensitySweep", m);
    r.expect(stats.spanning, "did not span");
    standard_counters(c, w.net->metrics(), kN, m);
  }
  for (const std::size_t m : {512, 2048, 8192, 32640}) {
    World w = gnm_world(kN, m, 61);
    const auto stats = baseline::flood_build_st(*w.net, *w.forest);
    Counters& c = r.add("BM_BuildSt_Flooding_DensitySweep", m);
    r.expect(stats.spanning, "did not span");
    standard_counters(c, w.net->metrics(), kN, m);
  }
}

// ---------------------------------------------------------------------------
// churn -- E14 (Theorem 1.2 under sustained churn). Trace-driven workloads
// through a MaintenanceSession, every op checked against the Kruskal oracle
// (`oracle_failures` must read 0). Per-op percentiles stay ~n polylog n,
// far below m, whatever the workload shape.
// ---------------------------------------------------------------------------

scenario::Scenario churn_scenario(workload::WorkloadKind kind, int ops,
                                  std::size_t n, std::size_t m) {
  scenario::Scenario sc = gnm_scenario(n, m, 2015);
  sc.workload = workload::WorkloadSpec::of(kind, ops);
  return sc;
}

template <typename Result>
void churn_counters(Recorder& r, Counters& c, const Result& res,
                    std::size_t ops) {
  r.expect(res.oracle_failures == 0,
           "oracle_failures = " + std::to_string(res.oracle_failures));
  c["ops"] = static_cast<double>(ops);
  c["oracle_failures"] = static_cast<double>(res.oracle_failures);
  c["messages"] = static_cast<double>(res.total.messages);
  c["bits"] = static_cast<double>(res.total.message_bits);
  c["rounds"] = static_cast<double>(res.total.rounds);
  c["msgs_min"] = static_cast<double>(res.messages.min);
  c["msgs_p50"] = static_cast<double>(res.messages.p50);
  c["msgs_mean"] = res.messages.mean;
  c["msgs_p99"] = static_cast<double>(res.messages.p99);
  c["msgs_max"] = static_cast<double>(res.messages.max);
  c["bits_p50"] = static_cast<double>(res.bits.p50);
  c["bits_p99"] = static_cast<double>(res.bits.p99);
  c["rounds_p50"] = static_cast<double>(res.rounds.p50);
  c["rounds_p99"] = static_cast<double>(res.rounds.p99);
}

void suite_churn(Recorder& r) {
  // One long-lived session per workload shape, plus the histogram of how
  // the repair engine answered it.
  const std::pair<const char*, workload::WorkloadKind> shapes[] = {
      {"uniform", workload::WorkloadKind::kUniform},
      {"hotspot", workload::WorkloadKind::kHotspot},
      {"bridges", workload::WorkloadKind::kBridges},
      {"growth", workload::WorkloadKind::kGrowth}};
  for (const auto& [label, kind] : shapes) {
    const workload::ChurnResult res =
        workload::run_churn(churn_scenario(kind, 600, 128, 1024));
    Counters& c = r.add("BM_Churn_Soak", label);
    churn_counters(r, c, res, res.records.size());
    std::size_t actions[static_cast<std::size_t>(
        core::RepairAction::kActionCount)] = {};
    for (const core::OpRecord& rec : res.records) {
      ++actions[static_cast<std::size_t>(rec.action)];
    }
    for (std::size_t a = 0; a < std::size(actions); ++a) {
      if (actions[a] == 0) continue;
      c[std::string("act.") +
        core::action_name(static_cast<core::RepairAction>(a))] =
          static_cast<double>(actions[a]);
    }
  }
  // Density independence under churn: per-op p99 stays flat while m grows
  // 8x.
  for (const std::size_t m : {512, 1024, 2048, 4096}) {
    const workload::ChurnResult res = workload::run_churn(
        churn_scenario(workload::WorkloadKind::kUniform, 200, 128, m));
    Counters& c = r.add("BM_Churn_DensitySweep", m);
    churn_counters(r, c, res, res.records.size());
    c["m"] = static_cast<double>(m);
  }
  // The multi-world sweep at 1, 2 and 8 executor threads: every row must
  // agree bit-for-bit (the SweepExecutor determinism contract).
  const scenario::Scenario sc =
      churn_scenario(workload::WorkloadKind::kUniform, 150, 96, 768);
  for (const int threads : {1, 2, 8}) {
    workload::ChurnOptions opt;
    opt.threads = threads;
    const workload::ChurnSweepResult res =
        workload::run_churn_sweep(sc, 100, 8, opt);
    Counters& c = r.add("BM_Churn_SweepThreads", std::to_string(threads),
                        "/process_time/real_time");
    churn_counters(r, c, res, res.ops);
    c["threads"] = static_cast<double>(threads);
    c["worlds"] = static_cast<double>(res.runs.size());
  }
}

// ---------------------------------------------------------------------------
// crossover -- E2: the folk-theorem gap. KKT stays flat in m on G(n, m)
// while GHS grows; on the hierarchical complete family (GHS's Theta(m)
// worst case) KKT overtakes GHS between n = 256 and n = 512.
// ---------------------------------------------------------------------------

void suite_crossover(Recorder& r) {
  // Builds the MST with GHS or KKT; true when it spans.
  const auto build = [](World& w, bool ghs) {
    return ghs ? baseline::ghs_build_mst(*w.net, *w.forest).spanning
               : core::build_mst(*w.net, *w.forest).spanning;
  };
  constexpr std::size_t kN = 256;
  for (const bool ghs : {false, true}) {
    for (const std::size_t m : {512, 2048, 8192, 32640}) {
      World w = gnm_world(kN, m, 50);
      const bool spanning = build(w, ghs);
      Counters& c = r.add(ghs ? "BM_Crossover_Ghs_DensitySweep"
                              : "BM_Crossover_Kkt_DensitySweep",
                          m);
      r.expect(spanning, "did not span");
      standard_counters(c, w.net->metrics(), kN, m);
    }
  }
  // n = 2^levels; the net seed keeps its historical derivation.
  for (const bool ghs : {false, true}) {
    for (const int levels : {6, 7, 8, 9, 10}) {
      scenario::Scenario sc;
      sc.graph = scenario::GraphSpec::hierarchical(levels);
      sc.seed = 51;
      sc.net_seed = 51;
      World w = scenario::make_world(sc);
      const std::size_t n = w.g->node_count(), m = w.g->edge_count();
      const bool spanning = build(w, ghs);
      Counters& c = r.add(ghs ? "BM_Crossover_Ghs_Hierarchical"
                              : "BM_Crossover_Kkt_Hierarchical",
                          static_cast<std::size_t>(levels));
      r.expect(spanning, "did not span");
      standard_counters(c, w.net->metrics(), n, m);
    }
  }
}

// ---------------------------------------------------------------------------
// findany -- E9 (Lemmas 4 and 5): per-attempt isolation success >= 1/16
// across cut sizes, expected O(1) broadcast-and-echoes per call, and the
// log n / log log n saving over FindMin.
// ---------------------------------------------------------------------------

CutWorld findany_cut(std::size_t n, std::size_t m, std::uint64_t seed) {
  CutWorld cw{gnm_world(n, m, seed)};
  cw.w.mark_msf();
  cw.root = cw.w.g->edge(split_tree(cw.w, 3)).u;
  return cw;
}

void suite_findany(Recorder& r) {
  // E9a: FindAny-C per-attempt success rate across densities (cut sizes).
  for (const std::size_t m : {127, 512, 2048, 8128}) {
    constexpr int kOps = 200;
    int successes = 0;
    for (int i = 0; i < kOps; ++i) {
      CutWorld cw = findany_cut(128, m, 200 + i);
      proto::TreeOps ops(*cw.w.net, graph::TreeView(*cw.w.forest));
      successes += core::find_any_c(ops, cw.root).found;
    }
    Counters& c = r.add("BM_FindAnyC_SuccessRate", m);
    c["m"] = static_cast<double>(m);
    c["success_rate"] = static_cast<double>(successes) / kOps;
    c["paper_lower_bound"] = 1.0 / 16.0;
  }
  // E9b: broadcast-and-echoes per FindAny vs n (expected O(1)).
  for (const std::size_t n : {64, 256, 1024}) {
    constexpr int kOps = 25;
    std::uint64_t bes_any = 0, bes_min = 0;
    for (int i = 0; i < kOps; ++i) {
      CutWorld cw = findany_cut(n, 8 * n, 230 + i);
      proto::TreeOps ops(*cw.w.net, graph::TreeView(*cw.w.forest));
      const auto b0 = cw.w.net->metrics().broadcast_echoes;
      core::find_any(ops, cw.root);
      const auto b1 = cw.w.net->metrics().broadcast_echoes;
      core::find_min(ops, cw.root);
      bes_any += b1 - b0;
      bes_min += cw.w.net->metrics().broadcast_echoes - b1;
    }
    Counters& c = r.add("BM_FindAny_BroadcastEchoes", n);
    c["n"] = static_cast<double>(n);
    c["findany_bes_per_op"] = static_cast<double>(bes_any) / kOps;
    c["findmin_bes_per_op"] = static_cast<double>(bes_min) / kOps;
    c["findmin_over_findany"] =
        static_cast<double>(bes_min) / static_cast<double>(bes_any);
  }
  // E9c: attempts until success (Lemma 4 is per attempt: expected <= 16).
  for (const std::size_t m : {127, 1024, 8128}) {
    constexpr int kOps = 100;
    std::uint64_t attempts = 0;
    int found = 0;
    for (int i = 0; i < kOps; ++i) {
      CutWorld cw = findany_cut(128, m, 260 + i);
      proto::TreeOps ops(*cw.w.net, graph::TreeView(*cw.w.forest));
      const auto res = core::find_any(ops, cw.root);
      attempts += res.stats.attempts;
      found += res.found;
    }
    Counters& c = r.add("BM_FindAny_AttemptsUntilSuccess", m);
    c["attempts_per_success"] =
        static_cast<double>(attempts) / std::max(found, 1);
    c["found"] = found;
  }
}

// ---------------------------------------------------------------------------
// findmin -- E10 (Lemma 2): O(log n / log log n) broadcast-and-echoes, the
// slice-width and hash-amplification ablations, FindMin-C's success rate;
// E12 (Appendix A): wide weights, oblivious w-wise search vs sampling.
// ---------------------------------------------------------------------------

CutWorld findmin_cut(std::size_t n, std::size_t m, std::uint64_t seed,
                     graph::Weight max_weight = 1u << 20) {
  scenario::Scenario sc;
  sc.graph = scenario::GraphSpec::gnm(n, m, max_weight);
  sc.seed = seed;
  sc.net_seed = seed ^ 0xf1dc;  // historical derivation: counters stay fixed
  sc.premark_msf = true;
  CutWorld cw{scenario::make_world(sc)};
  cw.root = cw.w.g->edge(split_tree(cw.w, 3)).u;
  return cw;
}

// Total broadcast-and-echoes of `calls` FindMin calls under `cfg`, at
// n = 256, m = 8n, seeds first_seed, first_seed + 1, ...
std::uint64_t findmin_bes(int calls, std::uint64_t first_seed,
                          const core::FindMinConfig& cfg) {
  std::uint64_t bes = 0;
  for (int i = 0; i < calls; ++i) {
    CutWorld cw = findmin_cut(256, 8 * 256, first_seed + i);
    proto::TreeOps ops(*cw.w.net, graph::TreeView(*cw.w.forest));
    core::find_min(ops, cw.root, cfg);
    bes += cw.w.net->metrics().broadcast_echoes;
  }
  return bes;
}

void suite_findmin(Recorder& r) {
  constexpr int kOps = 20;
  // E10a: broadcast-and-echoes per FindMin call vs n.
  for (const std::size_t n : {64, 256, 1024}) {
    std::uint64_t bes = 0, msgs = 0;
    int found = 0;
    for (int i = 0; i < kOps; ++i) {
      CutWorld cw = findmin_cut(n, 8 * n, 100 + i);
      proto::TreeOps ops(*cw.w.net, graph::TreeView(*cw.w.forest));
      found += core::find_min(ops, cw.root).found;
      bes += cw.w.net->metrics().broadcast_echoes;
      msgs += cw.w.net->metrics().messages;
    }
    Counters& c = r.add("BM_FindMin_BroadcastEchoes", n);
    c["n"] = static_cast<double>(n);
    c["bcast_echoes_per_op"] = static_cast<double>(bes) / kOps;
    c["messages_per_op"] = static_cast<double>(msgs) / kOps;
    c["found"] = found;
    c["lg_n_over_lglg_n"] = std::log2(static_cast<double>(n)) /
                            std::log2(std::log2(static_cast<double>(n)));
  }
  // E10b: ablation over the slice width w (2 = binary search).
  for (const int w : {2, 4, 8, 16, 32, 64}) {
    core::FindMinConfig cfg;
    cfg.w = w;
    const std::uint64_t bes = findmin_bes(kOps, 120, cfg);
    Counters& c = r.add("BM_FindMin_WidthAblation", std::to_string(w));
    c["w"] = w;
    c["bcast_echoes_per_op"] = static_cast<double>(bes) / kOps;
  }
  // E10c: hash amplification (1 = the paper's single-hash TestOut).
  for (const int reps : {1, 2, 4, 8}) {
    core::FindMinConfig cfg;
    cfg.hash_reps = reps;
    const std::uint64_t bes = findmin_bes(kOps, 140, cfg);
    Counters& c =
        r.add("BM_FindMin_AmplificationAblation", std::to_string(reps));
    c["hash_reps"] = reps;
    c["bcast_echoes_per_op"] = static_cast<double>(bes) / kOps;
  }
  // E10d: FindMin-C success rate (>= 2/3 - n^-c; failures are always
  // empty answers, never wrong edges).
  {
    constexpr int kRuns = 100;
    int successes = 0;
    for (int i = 0; i < kRuns; ++i) {
      CutWorld cw = findmin_cut(128, 8 * 128, 160 + i);
      proto::TreeOps ops(*cw.w.net, graph::TreeView(*cw.w.forest));
      successes += core::find_min_c(ops, cw.root).found;
    }
    Counters& c = r.add("BM_FindMinC_SuccessRate");
    c["success_rate"] = static_cast<double>(successes) / kRuns;
    c["paper_lower_bound"] = 2.0 / 3.0;
  }
  // E12: weights up to 2^48 -- the oblivious w-wise search, then the
  // Appendix-A sampling pivots on the same worlds.
  constexpr int kWide = 15;
  for (const bool sampling : {false, true}) {
    std::uint64_t bes = 0;
    int found = 0;
    for (int i = 0; i < kWide; ++i) {
      CutWorld cw = findmin_cut(256, 8 * 256, 180 + i, graph::Weight{1} << 48);
      proto::TreeOps ops(*cw.w.net, graph::TreeView(*cw.w.forest));
      if (sampling) {
        found += core::sample_find_min(ops, cw.root).found;
      } else {
        core::find_min(ops, cw.root);
      }
      bes += cw.w.net->metrics().broadcast_echoes;
    }
    Counters& c = r.add(sampling ? "BM_FindMin_WideWeights_Sampling"
                                 : "BM_FindMin_WideWeights_Oblivious");
    c["bcast_echoes_per_op"] = static_cast<double>(bes) / kWide;
    if (sampling) c["found"] = found;
  }
}

// ---------------------------------------------------------------------------
// repair -- E4/E5/E6 (Theorem 1.2) on an asynchronous network: MST and ST
// tree-edge deletion, insertion, batched deletion, against the naive
// probe-everything baseline (Theta(m_T)).
// ---------------------------------------------------------------------------

// Repair ops run through a MaintenanceSession (the churn engine's dispatch
// path), addressed by endpoints exactly as a recorded trace would.
core::OpRecord apply_op(World& w, core::ForestKind kind,
                        const core::UpdateOp& op) {
  core::MaintenanceSession session(*w.g, *w.forest, *w.net, kind);
  return session.apply(op);
}

void session_delete(World& w, core::ForestKind kind, graph::EdgeIdx victim) {
  const graph::Edge& ed = w.g->edge(victim);
  apply_op(w, kind, core::UpdateOp::erase(ed.u, ed.v));
}

// The naive baseline drives the forest directly: its point is the search
// cost, not the dispatch. With `remark`, the found edge is marked back.
void naive_delete(World& w, graph::EdgeIdx victim, bool remark) {
  const graph::NodeId root = w.g->edge(victim).u;
  w.g->remove_edge(victim);
  w.forest->clear_edge(victim);
  const auto res = baseline::naive_find_min_cut(*w.net, *w.forest, root);
  if (remark && res.found) {
    for (graph::EdgeIdx e : w.g->alive_edge_indices()) {
      if (w.g->edge_num(e) == res.edge_num) w.forest->mark_edge(e);
    }
  }
}

// The mean bill of 10 tree-edge deletions, each on a fresh world so the
// forest is the exact MSF.
template <typename OpFn>
void delete_sweep(Recorder& r, std::string_view bm, std::size_t arg,
                  std::size_t n, std::size_t m, OpFn op) {
  constexpr int kOps = 10;
  sim::Metrics total;
  for (int i = 0; i < kOps; ++i) {
    World w = gnm_world(n, m, 70 + i, NetKind::kAsync);
    w.mark_msf();
    const auto tree = w.forest->marked_edges();
    op(w, tree[(7 * i) % tree.size()]);
    total += w.net->metrics();
  }
  total.messages /= kOps;
  total.rounds /= kOps;
  total.broadcast_echoes /= kOps;
  total.message_bits /= kOps;
  standard_counters(r.add(bm, arg), total, n, m);
}

void suite_repair(Recorder& r) {
  const auto mst = [](World& w, graph::EdgeIdx e) {
    session_delete(w, core::ForestKind::kMst, e);
  };
  const auto st = [](World& w, graph::EdgeIdx e) {
    session_delete(w, core::ForestKind::kSt, e);
  };
  constexpr std::size_t kSizes[] = {64, 128, 256, 512, 1024};
  for (const std::size_t n : kSizes) {
    delete_sweep(r, "BM_Repair_DeleteMst", n, n, 8 * n, mst);
  }
  for (const std::size_t n : kSizes) {
    delete_sweep(r, "BM_Repair_DeleteSt", n, n, 8 * n, st);
  }
  for (const std::size_t n : kSizes) {
    delete_sweep(r, "BM_Repair_DeleteNaive", n, n, 8 * n,
                 [](World& w, graph::EdgeIdx e) { naive_delete(w, e, true); });
  }
  // E4 density independence at n = 256: KKT flat, naive linear in m.
  constexpr std::size_t kDensities[] = {512, 2048, 8192, 32640};
  for (const std::size_t m : kDensities) {
    delete_sweep(r, "BM_Repair_DeleteMst_DensitySweep", m, 256, m, mst);
  }
  for (const std::size_t m : kDensities) {
    delete_sweep(r, "BM_Repair_DeleteNaive_DensitySweep", m, 256, m,
                 [](World& w, graph::EdgeIdx e) { naive_delete(w, e, false); });
  }
  // E4b (extension): k tree edges deleted at once and repaired by parallel
  // Boruvka-completion phases, against k sequential delete_edge calls.
  for (const std::size_t k : {2, 4, 8, 16}) {
    constexpr std::size_t n = 256, m = 8 * n;
    std::uint64_t batch_msgs = 0, batch_rounds = 0;
    std::uint64_t seq_msgs = 0, seq_rounds = 0;
    for (int i = 0; i < 5; ++i) {
      const auto pick_batch = [&](World& w) {
        util::Rng rng(500 + i);
        std::vector<graph::EdgeIdx> pool = w.forest->marked_edges();
        std::vector<graph::EdgeIdx> batch;
        while (batch.size() < k) {
          const std::size_t j = rng.below(pool.size());
          batch.push_back(pool[j]);
          pool[j] = pool.back();
          pool.pop_back();
        }
        return batch;
      };
      {
        World w = gnm_world(n, m, 90 + i, NetKind::kAsync);
        w.mark_msf();
        core::DynamicForest dyn(*w.g, *w.forest, *w.net,
                                core::ForestKind::kMst);
        const auto out = dyn.delete_batch(pick_batch(w));
        batch_msgs += out.messages;
        batch_rounds += out.rounds;
      }
      {
        World w = gnm_world(n, m, 90 + i, NetKind::kAsync);
        w.mark_msf();
        core::DynamicForest dyn(*w.g, *w.forest, *w.net,
                                core::ForestKind::kMst);
        for (graph::EdgeIdx e : pick_batch(w)) {
          const auto out = dyn.delete_edge(e);
          seq_msgs += out.messages;
          seq_rounds += out.rounds;
        }
      }
    }
    Counters& c = r.add("BM_Repair_DeleteBatch", k);
    c["k"] = static_cast<double>(k);
    c["batch_messages"] = static_cast<double>(batch_msgs) / 5;
    c["batch_rounds"] = static_cast<double>(batch_rounds) / 5;
    c["seq_messages"] = static_cast<double>(seq_msgs) / 5;
    c["seq_rounds"] = static_cast<double>(seq_rounds) / 5;
  }
  // E6: insertion repair, deterministic O(n).
  for (const std::size_t n : kSizes) {
    const std::size_t m = 8 * n;
    constexpr int kOps = 10;
    sim::Metrics total;
    for (int i = 0; i < kOps; ++i) {
      World w = gnm_world(n, m, 80 + i, NetKind::kAsync);
      w.mark_msf();
      util::Rng pick(90 + i);
      graph::NodeId u = 0, v = 0;
      do {
        u = static_cast<graph::NodeId>(pick.below(n));
        v = static_cast<graph::NodeId>(pick.below(n));
      } while (u == v || w.g->find_edge(u, v).has_value());
      apply_op(w, core::ForestKind::kMst,
               core::UpdateOp::insert(u, v, 1 + pick.below(1u << 20)));
      total += w.net->metrics();
    }
    total.messages /= kOps;
    total.rounds /= kOps;
    standard_counters(r.add("BM_Repair_Insert", n), total, n, m);
  }
}

// ---------------------------------------------------------------------------
// testout -- E7 (Section 2.1): TestOut detects a nonempty cut with
// probability >= 1/8 per hash and never reports an empty one; E8
// (Section 2.2): HP-TestOut has no false negatives or positives at any
// feasible trial count.
// ---------------------------------------------------------------------------

// Split at the tree's midpoint, rooted at the larger side so the
// broadcast-and-echo is non-trivial.
CutWorld testout_cut(std::size_t n, std::size_t m, std::uint64_t seed) {
  CutWorld cw{gnm_world(n, m, seed)};
  cw.w.mark_msf();
  const graph::Edge& ed = cw.w.g->edge(split_tree(cw.w, 2));
  cw.root = cw.w.forest->component_of(ed.u).size() >=
                    cw.w.forest->component_of(ed.v).size()
                ? ed.u
                : ed.v;
  return cw;
}

void suite_testout(Recorder& r) {
  constexpr int kTrials = 400;
  // E7: empirical TestOut success rate on a nonempty cut.
  for (const std::size_t n : {32, 128, 512}) {
    CutWorld cw = testout_cut(n, 6 * n, 90);
    proto::TreeOps ops(*cw.w.net, graph::TreeView(*cw.w.forest));
    util::Rng rng(91);
    int hits = 0;
    for (int t = 0; t < kTrials; ++t) {
      hits += core::test_out_any(ops, cw.root, hashing::OddHash::random(rng));
    }
    Counters& c = r.add("BM_TestOut_SuccessRate", n);
    standard_counters(c, cw.w.net->metrics(), n, 6 * n);
    c["success_rate"] = static_cast<double>(hits) / kTrials;
    c["guaranteed_lower_bound"] = 0.125;
  }
  constexpr std::size_t kN = 128;
  // E7b: amplified TestOut (8 hashes per broadcast-and-echo).
  {
    CutWorld cw = testout_cut(kN, 6 * kN, 92);
    proto::TreeOps ops(*cw.w.net, graph::TreeView(*cw.w.forest));
    util::Rng rng(93);
    const core::Interval all{0, ~util::u128{0} >> 1};
    int hits = 0;
    for (int t = 0; t < kTrials; ++t) {
      hits += core::test_out_sliced_amplified(ops, cw.root, rng.next(), all,
                                              1, 8) != 0;
    }
    Counters& c = r.add("BM_TestOut_AmplifiedSuccessRate", kN);
    standard_counters(c, cw.w.net->metrics(), kN, 6 * kN);
    c["success_rate"] = static_cast<double>(hits) / kTrials;
  }
  // E7c: one-sidedness -- the whole graph is one tree (empty cut): many
  // hashes, zero false positives.
  {
    World w = gnm_world(kN, 6 * kN, 94);
    w.mark_msf();
    proto::TreeOps ops(*w.net, graph::TreeView(*w.forest));
    util::Rng rng(95);
    int false_positives = 0;
    for (int t = 0; t < kTrials; ++t) {
      false_positives +=
          core::test_out_any(ops, 0, hashing::OddHash::random(rng));
    }
    Counters& c = r.add("BM_TestOut_OneSided", kN);
    standard_counters(c, w.net->metrics(), kN, 6 * kN);
    c["false_positives"] = static_cast<double>(false_positives);
  }
  // E8: HP-TestOut over nonempty-cut and empty-cut trials.
  for (const std::size_t n : {64, 256}) {
    constexpr int kHpTrials = 200;
    CutWorld cw = testout_cut(n, 6 * n, 96);
    proto::TreeOps ops(*cw.w.net, graph::TreeView(*cw.w.forest));
    int false_negatives = 0;
    for (int t = 0; t < kHpTrials; ++t) {
      false_negatives += !core::hp_test_out_any(ops, cw.root).leaving;
    }
    World full = gnm_world(n, 6 * n, 97);
    full.mark_msf();
    proto::TreeOps fops(*full.net, graph::TreeView(*full.forest));
    int false_positives = 0;
    for (int t = 0; t < kHpTrials; ++t) {
      false_positives += core::hp_test_out_any(fops, 0).leaving;
    }
    Counters& c = r.add("BM_HpTestOut_ErrorRates", n);
    standard_counters(c, cw.w.net->metrics(), n, 6 * n);
    c["false_negatives"] = static_cast<double>(false_negatives);
    c["false_positives"] = static_cast<double>(false_positives);
  }
}

constexpr std::pair<std::string_view, void (*)(Recorder&)> kSuites[] = {
    {"build_mst", suite_build_mst}, {"build_st", suite_build_st},
    {"churn", suite_churn},         {"crossover", suite_crossover},
    {"findany", suite_findany},     {"findmin", suite_findmin},
    {"repair", suite_repair},       {"testout", suite_testout}};

}  // namespace

std::string suite_names() {
  std::string names;
  for (const auto& [name, suite] : kSuites) {
    names.append(names.empty() ? "" : ", ").append(name);
  }
  return names;
}

std::optional<SuiteRun> run_suite(std::string_view name) {
  for (const auto& [suite_name, suite] : kSuites) {
    if (suite_name != name) continue;
    Recorder r;
    suite(r);
    SuiteRun run = r.take();
    run.file.tool = "bench_" + std::string(name);
    return run;
  }
  return std::nullopt;
}

}  // namespace kkt::bench
