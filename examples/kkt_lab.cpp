// kkt_lab: the command-line laboratory for the library, and the repo's one
// graph CLI (generate, pack, inspect, build, churn).
//
//   kkt_lab gen   (--in FILE | --family F [graph flags]) [--seed S]
//                 --out FILE
//   kkt_lab info  FILE.kkg
//   kkt_lab build --algo kkt-mst|kkt-st|ghs|flood
//                 (--in FILE | --family F [graph flags]) [--seed S]
//                 [--net sync|async|adversarial]
//                 [--rss-budget-mb MB] [--csv]
//   kkt_lab churn --workload uniform|hotspot|bridges|growth --ops K
//                 [--family F [graph flags]] [--kind mst|st] [--seed S]
//                 [--net sync|async|adversarial]
//                 [--sweep N] [--threads T]
//                 [--trace FILE] [--record FILE] [--csv]
//   kkt_lab churn --faults batch|regional|partition[,MODEL...]
//                 [--events E] [--batch-k K] [--churn-ops C]
//                 [--family F [graph flags]] [--kind mst|st] [--seed S]
//                 [--net ...] [--record FILE] [--out FILE] [--csv]
//
// Graph families (F) are the kkt_scenario descriptors, so every experiment
// expressible here is also expressible as a Scenario value in code:
//   gnm        [--m M]        (default min(8n, n(n-1)/2))
//   ring, complete, tree, icomplete
//   gnp        [--p P]        (default: the density of --m edges)
//   geometric  [--radius R]   (default 0.5)
//   grid       [--cols C]     (default n)
//   barbell    [--path L]     (default 3)
//   pa         [--k K]        (default 3)
//   hier       [--levels L]   (default 8)
//   igridlong  [--links K]    (default 2, at most 64)
//   igeo       [--degree D]   (default 8)
// plus, for every family, [--n N] (default 128) and [--maxw W]. A family
// flag given to another family is a usage error.
//
// `gen` writes the graph to FILE: a packed `.kkg` mmap store
// (docs/GRAPH_STORE.md) when FILE ends in `.kkg`, the text format
// (graph/io.h) otherwise. `info` prints a store's n, m, id bits and file
// size with the full loader verdict (exit 0 valid, 1 invalid). `--in FILE`
// maps a `.kkg` read-only, or parses any other FILE as text, instead of
// generating. `build` constructs the requested tree, verifies it
// (distributed verify_spanning plus the centralized oracle for MSTs) and
// prints the communication bill with a per-message-tag breakdown (messages
// and bits). `churn` drives the trace-based engine (src/workload): a seeded
// workload generator or a replayed `--trace` file runs through a
// MaintenanceSession with per-op oracle checks and percentile cost stats;
// `--record` writes the generated trace as a reproducible artifact and
// `--sweep N --threads T` churns N worlds on a thread pool (aggregates are
// bit-identical for every T). `--csv` emits machine-readable rows.
//
// Every subcommand rejects a flag it does not read; that, a malformed
// number and a family size below a generator's minimum are usage errors
// (an `error:` line, exit 2).
// Each family keeps its generator's storage: icomplete is implicit K_n in
// O(n) state, igridlong / igeo are generated into the read-only frozen CSR
// layout, so `build --family igridlong --n 1048576` runs at web scale.
// `churn` (with or without --faults) mutates the graph, so it runs every
// family on the adjacency backend (a clone of the seeded families).
// `--rss-budget-mb MB` prints the process peak RSS after the run and fails
// the exit code when it exceeds the budget -- the CI bigraph stage's
// memory gate.
// `--net` picks the delivery schedule: synchronous rounds, uniform random
// delays, or the seeded adversary's per-edge bounds and reordering. Links
// are reliable under all three, as in the paper: every message sent is
// delivered exactly once (docs/FAULTS.md). `churn --faults MODEL` swaps the
// workload generator for the fault generator (src/workload/faults.h): a
// seeded stream of batch deletions, regional BFS-ball outages, or
// partition-and-heal events runs through MaintenanceSession::apply_batch
// with per-event oracle checks, and prints the max_rounds backstop's
// dropped-delivery count (0 in a correct run); `--record` writes the fault
// trace (docs/TRACE_FORMAT.md F records) and `--out` writes the
// BENCH_faultmodel.json artifact the CI faults stage archives.
// The KKT-vs-baseline head-to-head grid lives in `kkt_report run`
// (tools/kkt_report.cc).
#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "baseline/flood_st.h"
#include "baseline/ghs.h"
#include "core/build_mst.h"
#include "core/verify.h"
#include "graph/io.h"
#include "graph/mst_oracle.h"
#include "graph/store.h"
#include "report/schema.h"
#include "scenario/scenario.h"
#include "util/cli.h"
#include "util/rng.h"
#include "util/rusage.h"
#include "workload/churn.h"
#include "workload/faults.h"
#include "workload/trace.h"

namespace {

using Args = kkt::util::CliArgs;
using kkt::util::usage_error;

// Every flag make_graph_spec reads. From "cols" on they are the family
// flags, each read by one family only.
constexpr std::string_view kSpecFlags[] = {
    "family", "n", "m", "maxw", "cols", "path", "k", "levels",
    "p", "radius", "links", "degree"};
constexpr auto kFamilyFlags = std::span(kSpecFlags).subspan<4>();

kkt::scenario::GraphSpec make_graph_spec(const Args& a) {
  const std::string family = a.get("family", "gnm");
  const auto fam = kkt::scenario::family_from_name(family);
  if (!fam) usage_error("unknown family '" + family + "'");
  kkt::scenario::GraphSpec spec;
  spec.family = *fam;
  spec.n = a.num("n", 128);
  spec.m = a.num("m", std::min(8 * spec.n, spec.n * (spec.n - 1) / 2));
  spec.weights = {a.num("maxw", 1u << 20)};
  std::string_view own;  // the one family flag this family reads
  using F = kkt::scenario::GraphFamily;
  switch (*fam) {
    case F::kGrid: own = "cols"; spec.aux = a.num("cols", spec.n); break;
    case F::kBarbell: own = "path"; spec.aux = a.num("path", 3); break;
    case F::kPreferential: own = "k"; spec.aux = a.num("k", 3); break;
    case F::kHierarchical: own = "levels"; spec.aux = a.num("levels", 8); break;
    case F::kGnp:
      own = "p";
      spec.param = a.real("p", 2.0 * double(spec.m) /
                                   (double(spec.n) * double(spec.n - 1)));
      break;
    case F::kGeometric:
      own = "radius";
      spec.param = a.real("radius", 0.5);
      break;
    case F::kIGridLong: own = "links"; spec.aux = a.num("links", 2); break;
    case F::kIGeometric:
      own = "degree";
      spec.param = a.real("degree", 8.0);
      break;
    default: break;
  }
  for (const std::string_view flag : kFamilyFlags) {
    if (flag != own && a.has(std::string(flag))) {
      usage_error("--" + std::string(flag) + " does not apply to family " +
                  family);
    }
  }
  if (const auto err = kkt::scenario::graph_spec_error(spec)) {
    usage_error(*err);
  }
  return spec;
}

// The --in FILE graph (a `.kkg` mapped read-only for the graph's lifetime,
// anything else parsed as text), or the generated --family one.
kkt::graph::Graph make_graph(const Args& a) {
  const std::uint64_t seed = a.num("seed", 1);
  if (!a.has("in")) {
    return kkt::scenario::build_graph(make_graph_spec(a), seed);
  }
  for (const std::string_view flag : kSpecFlags) {
    if (a.has(std::string(flag))) {
      usage_error("--in reads the graph from a file; drop --" +
                  std::string(flag));
    }
  }
  const std::string path = a.get("in", "");
  std::string err;
  if (path.ends_with(".kkg")) {
    auto store = kkt::graph::FrozenStore::open(path, &err);
    if (store == nullptr) usage_error(err);
    return kkt::graph::Graph::from_store(std::move(store));
  }
  kkt::util::Rng rng(seed);
  auto g = kkt::graph::read_graph_file(path, rng, &err);
  if (!g) usage_error(err);
  return *std::move(g);
}

kkt::scenario::NetSpec make_net_spec(const Args& a,
                                     kkt::scenario::NetKind dflt) {
  const std::string net = a.get(
      "net", kkt::scenario::net_kind_name(dflt));
  const auto kind = kkt::scenario::net_kind_from_name(net);
  if (!kind) usage_error("unknown net kind '" + net + "'");
  kkt::scenario::NetSpec spec;
  spec.kind = *kind;
  return spec;
}

kkt::core::ForestKind forest_kind(const Args& a) {
  const std::string kind = a.get("kind", "mst");
  if (kind != "mst" && kind != "st") {
    usage_error("--kind wants mst or st, got '" + kind + "'");
  }
  return kind == "mst" ? kkt::core::ForestKind::kMst
                       : kkt::core::ForestKind::kSt;
}

void print_metrics(const kkt::sim::Metrics& m, std::size_t n, std::size_t em,
                   bool csv, const char* label) {
  if (csv) {
    std::printf("%s,%zu,%zu,%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
                "\n",
                label, n, em, m.messages, m.rounds, m.broadcast_echoes,
                m.message_bits);
    return;
  }
  std::printf("cost: %" PRIu64 " messages (%.2f/node, %.3f/edge), %" PRIu64
              " rounds, %" PRIu64 " B&Es, %" PRIu64 " bits\n",
              m.messages, double(m.messages) / double(n),
              double(m.messages) / double(em ? em : 1), m.rounds,
              m.broadcast_echoes, m.message_bits);
  std::printf("message breakdown (msgs/bits):");
  for (int t = 0; t < static_cast<int>(kkt::sim::Tag::kTagCount); ++t) {
    const auto c = m.per_tag[t];
    if (c != 0) {
      std::printf("  %s=%" PRIu64 "/%" PRIu64,
                  kkt::sim::tag_name(kkt::sim::Tag(t)), c, m.per_tag_bits[t]);
    }
  }
  std::printf("\n");
}

int cmd_gen(const Args& a) {
  a.expect_only("gen", {"in", "seed", "out"}, kSpecFlags);
  const std::string out = a.get("out", "");
  if (out.empty()) usage_error("gen requires --out FILE");
  const kkt::graph::Graph g = make_graph(a);
  std::string err = "cannot write " + out;
  if (!(out.ends_with(".kkg") ? kkt::graph::pack_store(out, g, &err)
                              : kkt::graph::write_graph_file(out, g))) {
    usage_error(err);
  }
  std::printf("wrote %s: n=%zu m=%zu\n", out.c_str(), g.node_count(),
              g.edge_count());
  return 0;
}

// Exit 0 for a valid store, 1 for one the loader rejects.
int cmd_info(const Args& a) {
  a.expect_only("info", {}, {}, 1);
  const std::string& path = a.positional().front();
  std::printf("file:    %s\n", path.c_str());
  std::error_code ec;
  const std::uintmax_t bytes = std::filesystem::file_size(path, ec);
  if (!ec) std::printf("bytes:   %ju\n", bytes);
  std::string err;
  const auto store = kkt::graph::FrozenStore::open(path, &err);
  if (store == nullptr) {
    std::printf("valid:   NO -- %s\n", err.c_str());
    return 1;
  }
  std::printf("n:       %zu\nm:       %zu\nid_bits: %d\nvalid:   yes\n",
              store->node_count(), store->edge_count(), store->id_bits());
  return 0;
}

int cmd_build(const Args& a) {
  a.expect_only("build",
                {"in", "seed", "algo", "net", "csv", "rss-budget-mb"},
                kSpecFlags);
  const std::string algo = a.get("algo", "kkt-mst");
  const bool csv = a.has("csv");
  if (algo != "kkt-mst" && algo != "kkt-st" && algo != "ghs" &&
      algo != "flood") {
    usage_error("unknown algo '" + algo + "'");
  }
  const kkt::graph::Graph g = make_graph(a);

  kkt::graph::MarkedForest forest(g);
  const auto net_ptr = kkt::scenario::make_network(
      g, make_net_spec(a, kkt::scenario::NetKind::kSync),
      a.num("seed", 1) ^ 0xbeef);
  kkt::sim::Network& net = *net_ptr;
  bool ok = false;
  if (algo == "kkt-mst") {
    ok = kkt::core::build_mst(net, forest).spanning &&
         kkt::graph::same_edge_set(forest.marked_edges(),
                                   kkt::graph::kruskal_msf(g));
  } else if (algo == "kkt-st") {
    ok = kkt::core::build_st(net, forest).spanning;
  } else if (algo == "ghs") {
    ok = kkt::baseline::ghs_build_mst(net, forest).spanning &&
         kkt::graph::same_edge_set(forest.marked_edges(),
                                   kkt::graph::kruskal_msf(g));
  } else {
    ok = kkt::baseline::flood_build_st(net, forest).spanning;
  }
  const kkt::sim::Metrics before_verify = net.metrics();
  const bool audit_ok = kkt::core::verify_spanning(net, forest).spanning_forest();
  const std::uint64_t audit_msgs =
      net.metrics().messages - before_verify.messages;

  if (!csv) {
    std::printf("%s on n=%zu m=%zu: %s; distributed audit: %s (%" PRIu64
                " extra msgs)\n",
                algo.c_str(), g.node_count(), g.edge_count(),
                ok ? "correct" : "WRONG",
                audit_ok ? "spanning forest" : "REJECTED", audit_msgs);
  }
  print_metrics(before_verify, g.node_count(), g.edge_count(), csv,
                algo.c_str());
  // Memory gate: always report peak RSS when a budget is set (the CI
  // bigraph stage greps this line); exceed it and the exit code trips.
  const std::uint64_t budget_mb = a.num("rss-budget-mb", 0);
  if (budget_mb != 0) {
    const std::uint64_t rss_kb = kkt::util::peak_rss_kb();
    const bool over = rss_kb > budget_mb * 1024;
    if (csv) {
      std::printf("rss,%" PRIu64 ",%" PRIu64 ",%s\n", rss_kb, budget_mb,
                  over ? "OVER" : "ok");
    } else {
      std::printf("peak RSS: %.1f MiB (budget %" PRIu64 " MiB): %s\n",
                  double(rss_kb) / 1024.0, budget_mb,
                  over ? "OVER BUDGET" : "ok");
    }
    if (over) return 1;
  }
  return ok && audit_ok ? 0 : 1;
}

// churn --faults MODEL: replace the workload generator with the fault
// generator and run the typed event stream (batch deletions, regional
// outages, partition-and-heal) through MaintenanceSession::apply_batch.
int run_fault_model(const Args& a, const kkt::scenario::Scenario& sc,
                    kkt::workload::FaultModel model,
                    kkt::report::ResultFile* artifact) {
  const bool csv = a.has("csv");
  kkt::workload::FaultSpec spec;
  spec.model = model;
  spec.events = static_cast<int>(a.num("events", 4));
  spec.batch_k = static_cast<int>(a.num("batch-k", 4));
  spec.churn_ops = static_cast<int>(a.num("churn-ops", 4));

  kkt::scenario::World w = kkt::scenario::make_world(sc);
  w.mark_msf();
  const kkt::workload::FaultTrace trace = kkt::workload::generate_faults(
      *w.g, spec, kkt::util::mix_seeds(sc.seed, kkt::workload::kFaultSeedSalt));
  if (a.has("record")) {
    const std::string out = a.get("record", "");
    if (!kkt::workload::write_fault_trace_file(out, trace)) {
      usage_error("cannot write " + out);
    }
    std::fprintf(stderr, "recorded %zu-event fault trace to %s "
                 "(digest %016" PRIx64 ")\n",
                 trace.events.size(), out.c_str(),
                 kkt::workload::fault_trace_digest(trace));
  }

  kkt::core::SessionOptions opts;
  opts.check_oracle = true;
  kkt::core::MaintenanceSession session(*w.g, *w.forest, *w.net,
                                        forest_kind(a), opts);

  std::vector<kkt::workload::FaultRecord> records;
  records.reserve(trace.events.size());
  for (const kkt::workload::FaultEvent& ev : trace.events) {
    records.push_back(kkt::workload::apply_fault(session, ev));
  }

  std::size_t oracle_bad = 0;
  for (std::size_t i = 0; i < records.size(); ++i) {
    const kkt::workload::FaultRecord& rec = records[i];
    if (!rec.oracle_ok) ++oracle_bad;
    if (csv) {
      std::printf("event%zu,%s,%zu,%zu,%zu,%zu,%zu,%" PRIu64 ",%" PRIu64
                  ",%d\n",
                  i, kkt::workload::fault_kind_name(rec.kind), rec.applied,
                  rec.tree_edges_removed, rec.phases, rec.components_before,
                  rec.components_after, rec.cost.messages, rec.cost.rounds,
                  rec.oracle_ok ? 1 : 0);
    } else {
      std::printf("event %-2zu %-8s applied=%zu/%zu tree-cut=%zu phases=%zu "
                  "components %zu->%zu cost=%" PRIu64 " msgs/%" PRIu64
                  " rounds oracle=%s\n",
                  i, kkt::workload::fault_kind_name(rec.kind), rec.applied,
                  rec.requested, rec.tree_edges_removed, rec.phases,
                  rec.components_before, rec.components_after,
                  rec.cost.messages, rec.cost.rounds,
                  rec.oracle_ok ? "ok" : "MISMATCH");
    }
  }
  if (!csv) {
    std::printf("%s faults: %zu events (trace digest %016" PRIx64 ")\n",
                trace.name.c_str(), trace.events.size(),
                kkt::workload::fault_trace_digest(trace));
    print_metrics(w.net->metrics(), w.g->node_count(), w.g->edge_count(),
                  false, "faults");
    std::printf("dropped deliveries: %" PRIu64 "\nexactness: %s\n",
                w.net->metrics().dropped_deliveries,
                oracle_bad == 0 ? "oracle matched after every event"
                                : "MISMATCHES detected");
  }

  // Unified artifact (docs/RESULT_SCHEMA.md): counter-only records, so the
  // file is byte-deterministic at a fixed seed -- the CI faults stage
  // archives it as BENCH_faultmodel.json.
  if (artifact != nullptr) {
    kkt::report::ResultFile& f = *artifact;
    for (std::size_t i = 0; i < records.size(); ++i) {
      const kkt::workload::FaultRecord& rec = records[i];
      kkt::report::RunRecord r;
      r.name = "faultmodel/" + trace.name + "/event=" + std::to_string(i) +
               "/" + kkt::workload::fault_kind_name(rec.kind);
      r.counters["applied"] = double(rec.applied);
      r.counters["tree_edges_removed"] = double(rec.tree_edges_removed);
      r.counters["replacements"] = double(rec.replacements);
      r.counters["phases"] = double(rec.phases);
      r.counters["components_before"] = double(rec.components_before);
      r.counters["components_after"] = double(rec.components_after);
      r.counters["messages"] = double(rec.cost.messages);
      r.counters["rounds"] = double(rec.cost.rounds);
      r.counters["oracle_ok"] = rec.oracle_ok ? 1.0 : 0.0;
      f.records.push_back(std::move(r));
    }
    kkt::report::RunRecord total;
    total.name = "faultmodel/" + trace.name + "/total";
    total.counters["events"] = double(trace.events.size());
    // Truncated to 53 bits so the double holds it exactly.
    total.counters["trace_digest"] =
        double(kkt::workload::fault_trace_digest(trace) >> 11);
    total.counters["messages"] = double(w.net->metrics().messages);
    total.counters["rounds"] = double(w.net->metrics().rounds);
    total.counters["dropped_deliveries"] =
        double(w.net->metrics().dropped_deliveries);
    total.counters["oracle_failures"] = double(oracle_bad);
    f.records.push_back(std::move(total));
  }
  return oracle_bad == 0 ? 0 : 1;
}

int cmd_churn_faults(const Args& a, const kkt::scenario::Scenario& sc) {
  // Comma-separated model list: one invocation (and one artifact) can
  // cover the whole fault matrix, e.g. --faults batch,regional,partition.
  std::vector<kkt::workload::FaultModel> models;
  const std::string list = a.get("faults", "batch");
  for (std::size_t at = 0; at <= list.size();) {
    const std::size_t comma = std::min(list.find(',', at), list.size());
    if (comma > at) {
      const std::string name = list.substr(at, comma - at);
      const auto model = kkt::workload::fault_model_from_name(name);
      if (!model) usage_error("unknown fault model '" + name + "'");
      models.push_back(*model);
    }
    at = comma + 1;
  }
  if (models.empty()) usage_error("--faults wants at least one model");
  if (a.has("record") && models.size() > 1) {
    usage_error("--record writes one fault trace; use a single --faults "
                "model with it");
  }
  kkt::report::ResultFile artifact;
  artifact.tool = "kkt_lab_faults";
  int worst = 0;
  for (const kkt::workload::FaultModel model : models) {
    worst = std::max(
        worst, run_fault_model(a, sc, model,
                               a.has("out") ? &artifact : nullptr));
  }
  if (a.has("out")) {
    const std::string out = a.get("out", "BENCH_faultmodel.json");
    if (!kkt::report::write_results_file(out, artifact)) {
      usage_error("cannot write " + out);
    }
    std::fprintf(stderr, "wrote %s\n", out.c_str());
  }
  return worst;
}

void print_cost_stats(const char* what, const kkt::workload::CostStats& s) {
  std::printf("  %-8s min=%" PRIu64 " p50=%" PRIu64 " mean=%.1f p99=%" PRIu64
              " max=%" PRIu64 " total=%" PRIu64 "\n",
              what, s.min, s.p50, s.mean, s.p99, s.max, s.total);
}

// Churn regenerates its world from (family, seed) -- per sweep seed and on
// trace replay -- so it takes no --in FILE.
int cmd_churn(const Args& a) {
  if (a.has("faults")) {
    a.expect_only("churn --faults",
                  {"seed", "csv", "net", "kind", "faults", "events",
                   "batch-k", "churn-ops", "record", "out"},
                  kSpecFlags);
  } else {
    a.expect_only("churn",
                  {"seed", "csv", "net", "kind", "workload", "ops",
                   "threads", "sweep", "trace", "record"},
                  kSpecFlags);
  }
  const std::uint64_t seed = a.num("seed", 1);
  const bool csv = a.has("csv");

  kkt::scenario::Scenario sc;
  sc.graph = make_graph_spec(a);
  kkt::scenario::use_mutable_backend(sc.graph);
  sc.net = make_net_spec(a, kkt::scenario::NetKind::kAsync);
  sc.seed = seed;

  if (a.has("faults")) return cmd_churn_faults(a, sc);

  const std::string workload = a.get("workload", "uniform");
  const auto kind = kkt::workload::workload_from_name(workload);
  if (!kind) usage_error("unknown workload '" + workload + "'");
  kkt::workload::WorkloadSpec spec = kkt::workload::WorkloadSpec::of(
      *kind, static_cast<int>(a.num("ops", 64)));
  spec.max_weight = a.num("maxw", 1u << 20);
  sc.workload = spec;

  kkt::workload::ChurnOptions opt;
  opt.kind = forest_kind(a);
  opt.threads = static_cast<int>(a.num("threads", 1));

  // Sweep mode: churn `sweep` worlds (seeds seed, seed+1, ...) on the
  // SweepExecutor pool; aggregates are bit-identical for every --threads.
  const int sweep = static_cast<int>(a.num("sweep", 0));
  if (sweep > 0) {
    if (a.has("trace") || a.has("record")) {
      usage_error("--trace/--record apply to single runs, not --sweep "
                  "(each sweep world generates its own trace)");
    }
    const auto res = kkt::workload::run_churn_sweep(sc, seed, sweep, opt);
    if (csv) {
      for (int i = 0; i < sweep; ++i) {
        const auto& run = res.runs[static_cast<std::size_t>(i)];
        std::printf("seed%" PRIu64 ",%zu,%" PRIu64 ",%" PRIu64 ",%zu\n",
                    seed + static_cast<std::uint64_t>(i), run.records.size(),
                    run.total.messages, run.total.rounds,
                    run.oracle_failures);
      }
      return res.oracle_failures == 0 ? 0 : 1;
    }
    std::printf("%s churn sweep: %d worlds x %zu ops on %d thread(s)\n",
                workload.c_str(), sweep,
                res.ops / static_cast<std::size_t>(sweep), opt.threads);
    std::printf("total: %" PRIu64 " messages, %" PRIu64 " bits, %" PRIu64
                " rounds; per-op distributions:\n",
                res.total.messages, res.total.message_bits, res.total.rounds);
    print_cost_stats("msgs", res.messages);
    print_cost_stats("bits", res.bits);
    print_cost_stats("rounds", res.rounds);
    std::printf("exactness: %s\n",
                res.oracle_failures == 0 ? "oracle matched after every op"
                                         : "MISMATCHES detected");
    return res.oracle_failures == 0 ? 0 : 1;
  }

  // Single run, optionally replaying / recording a trace artifact.
  std::optional<kkt::workload::UpdateTrace> replay;
  if (a.has("trace")) {
    std::string err;
    replay = kkt::workload::read_trace_file(a.get("trace", ""), &err);
    if (!replay) usage_error(err);
  }
  const auto res = kkt::workload::run_churn(
      sc, opt, replay ? &*replay : nullptr);
  if (a.has("record")) {
    const std::string out = a.get("record", "");
    if (!kkt::workload::write_trace_file(out, res.trace)) {
      usage_error("cannot write " + out);
    }
    // stderr: keeps --csv stdout machine-readable.
    std::fprintf(stderr, "recorded %zu-op trace to %s (digest %016" PRIx64
                 ")\n",
                 res.trace.ops.size(), out.c_str(),
                 kkt::workload::trace_digest(res.trace));
  }
  if (csv) {
    for (std::size_t i = 0; i < res.records.size(); ++i) {
      const auto& rec = res.records[i];
      std::printf("op%zu,%s,%s,%" PRIu64 ",%" PRIu64 ",%d\n", i,
                  kkt::core::op_kind_name(rec.op.kind),
                  kkt::core::action_name(rec.action), rec.cost.messages,
                  rec.cost.rounds, rec.oracle_ok ? 1 : 0);
    }
    return res.oracle_failures == 0 ? 0 : 1;
  }
  std::printf("%s churn: %zu ops on n=%zu (trace digest %016" PRIx64 ")\n",
              res.trace.name.c_str(), res.records.size(), sc.graph.n,
              kkt::workload::trace_digest(res.trace));
  std::size_t actions[static_cast<std::size_t>(
      kkt::core::RepairAction::kActionCount)] = {};
  for (const auto& rec : res.records) {
    ++actions[static_cast<std::size_t>(rec.action)];
  }
  std::printf("actions:");
  for (std::size_t i = 0; i < std::size(actions); ++i) {
    if (actions[i] != 0) {
      std::printf(" %s=%zu",
                  kkt::core::action_name(
                      static_cast<kkt::core::RepairAction>(i)),
                  actions[i]);
    }
  }
  std::printf("\nper-op distributions:\n");
  print_cost_stats("msgs", res.messages);
  print_cost_stats("bits", res.bits);
  print_cost_stats("rounds", res.rounds);
  std::printf("exactness: %s\n",
              res.oracle_failures == 0 ? "oracle matched after every op"
                                       : "MISMATCHES detected");
  return res.oracle_failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage_error("usage: kkt_lab gen|info|build|churn [--flags]; see the "
                "header comment of examples/kkt_lab.cpp");
  }
  const std::string cmd = argv[1];
  const Args a(argc, argv, 2);
  if (cmd == "gen") return cmd_gen(a);
  if (cmd == "info") return cmd_info(a);
  if (cmd == "build") return cmd_build(a);
  if (cmd == "churn") return cmd_churn(a);
  usage_error("unknown command '" + cmd + "'");
}
