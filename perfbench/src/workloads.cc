#include "workloads.h"

#include <algorithm>
#include <memory>
#include <sstream>
#include <utility>

#include "core/build_mst.h"
#include "core/verify.h"
#include "graph/dsu.h"
#include "graph/mst_oracle.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace kkt::perfbench {
namespace {

constexpr std::uint64_t kWorldSalt = 0x70b3;

// Seed of world `i` of a run with seed `seed`.
std::uint64_t world_seed(std::uint64_t seed, int i) {
  return util::mix_seeds(seed, kWorldSalt + static_cast<std::uint64_t>(i));
}
// Churn: a full graph::kruskal_msf comparison every this many ops (and
// after the last one), on top of the per-op oracle below.
constexpr int kFullCheckEvery = 500;

std::vector<WorkloadDef> all_workloads() {
  std::vector<WorkloadDef> defs;

  WorkloadDef dense;
  dense.name = "dense_build";
  dense.graph = scenario::GraphSpec::gnm(4096, 262144);
  dense.net = scenario::NetSpec::sync();
  dense.worlds = 36;
  defs.push_back(dense);

  WorkloadDef grid;
  grid.name = "grid_build";
  grid.graph = scenario::GraphSpec::igridlong(16384, 2);
  grid.net = scenario::NetSpec::sync();
  grid.worlds = 7;
  defs.push_back(grid);

  WorkloadDef churn;
  churn.name = "churn_async";
  churn.graph = scenario::GraphSpec::gnm(2048, 32768);
  churn.net = scenario::NetSpec::async();
  churn.churn = true;
  churn.worlds = 9;
  churn.ops = 1500;
  defs.push_back(churn);
  return defs;
}

// The model-cost fingerprint of one world's task; later cycles must
// reproduce the first cycle's exactly.
struct Counters {
  std::uint64_t messages = 0, rounds = 0, bcast_echoes = 0, phases = 0;
  std::array<std::uint64_t, kMaxPhases> phase_msgs{};
  std::array<std::uint64_t, kActions> actions{};
  std::vector<core::RepairAction> op_actions;  // churn: per op, in order
  friend bool operator==(const Counters&, const Counters&) = default;
};

// Times of one visit of one world, scaled to the reference host speed
// unless raw.
struct Visit {
  double setup_s = 0, generate_s = 0, premark_s = 0, task_s = 0;
  double setup_raw_s = 0, task_raw_s = 0;
  std::vector<double> op_ms;  // churn: per op
};

// Churn: host speed is re-measured every this many ops.
constexpr int kSpeedSampleEvery = 100;

void add_counters(PassResult& r, const Counters& c) {
  r.messages += c.messages;
  r.rounds += c.rounds;
  r.bcast_echoes += c.bcast_echoes;
  r.phases += c.phases;
  for (int i = 0; i < kMaxPhases; ++i) r.phase_msgs[i] += c.phase_msgs[i];
  for (int a = 0; a < kActions; ++a) r.actions[a] += c.actions[a];
}

// Destroys a world in dependency order (network and forest borrow the
// graph), so the next set-up never overlaps the previous world in memory.
void release(scenario::World& w) {
  w.net.reset();
  w.forest.reset();
  w.g.reset();
}

// World set-up: graph generation or materialisation, network and forest,
// and for churn the premarked oracle MSF. The same calls make_world(sc)
// makes, timed one by one.
void set_up(const WorkloadDef& def, std::uint64_t seed, Tracer& tracer,
            HostSpeed& speed, scenario::World& w, Visit& v) {
  std::unique_ptr<graph::Graph> g;
  const double generate = timed(tracer, "scenario::build_graph", [&] {
    g = std::make_unique<graph::Graph>(scenario::build_graph(def.graph, seed));
  });
  const double wrap = timed(tracer, "scenario::make_world", [&] {
    w = scenario::make_world(std::move(g), def.net,
                             seed ^ scenario::kNetSeedSalt);
  });
  double premark = 0.0;
  if (def.churn) {
    premark = timed(tracer, "scenario::World::mark_msf", [&] { w.mark_msf(); });
  }
  const double k = speed.scale();
  v.generate_s = k * generate;
  v.premark_s = k * premark;
  v.setup_raw_s = generate + wrap + premark;
  v.setup_s = k * v.setup_raw_s;
}

// Full oracle check: the maintained forest is exactly graph::kruskal_msf.
bool kruskal_check(Tracer& tracer, const HostSpeed& speed, scenario::World& w,
                   PassResult& r) {
  std::vector<graph::EdgeIdx> msf;
  r.oracle_s.back() +=
      speed.scale() * timed(tracer, "graph::kruskal_msf",
                            [&] { msf = graph::kruskal_msf(w.graph()); });
  return w.trees().properly_marked() && w.trees().marked_edges() == msf;
}

// The distributed self-audit of the finished forest.
bool audit(Tracer& tracer, const HostSpeed& speed, scenario::World& w,
           PassResult& r) {
  core::VerifySpanningResult res;
  r.audit_s.push_back(speed.scale() *
                      timed(tracer, "core::verify_spanning", [&] {
                        res = core::verify_spanning(w.network(), w.trees());
                      }));
  return res.spanning_forest();
}

Counters build_visit(Tracer& tracer, HostSpeed& speed, scenario::World& w,
                     PassResult& r, Visit& v) {
  const sim::Metrics before = w.network().metrics();
  core::BuildStats stats;
  const double k_before = speed.scale();
  v.task_raw_s = timed(tracer, "core::build_mst", [&] {
    stats = core::build_mst(w.network(), w.trees());
  });
  // A build spans seconds: scale by the host speed on both sides of it.
  v.task_s = v.task_raw_s * 0.5 * (k_before + speed.sample());
  const sim::Metrics cost = w.network().metrics() - before;

  Counters c;
  c.messages = cost.messages;
  c.rounds = cost.rounds;
  c.bcast_echoes = cost.broadcast_echoes;
  c.phases = stats.phases;
  for (std::size_t i = 0; i < stats.per_phase.size(); ++i) {
    c.phase_msgs[std::min<std::size_t>(i, kMaxPhases - 1)] +=
        stats.per_phase[i].messages;
  }

  bool ok = stats.spanning;
  ok = audit(tracer, speed, w, r) && ok;
  r.oracle_s.push_back(0.0);
  ok = kruskal_check(tracer, speed, w, r) && ok;
  r.attempted += 1;
  r.failed += ok ? 0 : 1;
  return c;
}

// Exact MSF bookkeeping for single updates, from the graph layer's oracle
// primitives. One update moves the MSF by at most one swap: an insert (or
// a lighter non-tree edge) can only displace the heaviest edge of the cycle
// it closes, so the new MSF is the MSF of tree + that edge; a deleted (or
// heavier) tree edge is replaced by the minimum edge across the cut it
// leaves. Each op thus costs a Kruskal over n candidates or one
// graph::min_cut_edge scan instead of a Kruskal over all m edges -- which
// is what lets every op be checked. Periodic graph::kruskal_msf checks keep
// this bookkeeping itself honest.
class MsfOracle {
 public:
  explicit MsfOracle(std::vector<graph::EdgeIdx> msf) : tree_(std::move(msf)) {}

  struct Before {
    std::optional<graph::EdgeIdx> edge;
    bool in_tree = false;
    graph::AugWeight aug = 0;
  };

  Before before(const graph::Graph& g, const core::UpdateOp& op) const {
    Before b;
    if (op.kind == core::OpKind::kInsert) return b;
    b.edge = g.find_edge(op.u, op.v);
    if (b.edge) {
      b.in_tree = std::binary_search(tree_.begin(), tree_.end(), *b.edge);
      b.aug = g.aug_weight(*b.edge);
    }
    return b;
  }

  void after(const graph::Graph& g, const core::UpdateOp& op,
             const Before& b) {
    switch (op.kind) {
      case core::OpKind::kInsert:
        if (const auto e = g.find_edge(op.u, op.v)) rebuild_with(g, *e);
        break;
      case core::OpKind::kDelete:
        if (b.in_tree) reconnect_without(g, *b.edge, op.u);
        break;
      case core::OpKind::kWeightChange: {
        if (!b.edge) break;
        const graph::AugWeight now = g.aug_weight(*b.edge);
        if (b.in_tree && now > b.aug) reconnect_without(g, *b.edge, op.u);
        if (!b.in_tree && now < b.aug) rebuild_with(g, *b.edge);
        break;
      }
    }
  }

  const std::vector<graph::EdgeIdx>& edges() const { return tree_; }

 private:
  void rebuild_with(const graph::Graph& g, graph::EdgeIdx e) {
    std::vector<graph::EdgeIdx> cand = tree_;
    cand.push_back(e);
    std::sort(cand.begin(), cand.end(),
              [&g](graph::EdgeIdx a, graph::EdgeIdx b) {
                return g.aug_weight(a) < g.aug_weight(b);
              });
    graph::Dsu dsu(g.node_count());
    tree_.clear();
    for (const graph::EdgeIdx c : cand) {
      if (dsu.unite(g.edge(c).u, g.edge(c).v)) tree_.push_back(c);
    }
    std::sort(tree_.begin(), tree_.end());
  }

  void reconnect_without(const graph::Graph& g, graph::EdgeIdx e,
                         graph::NodeId u) {
    tree_.erase(std::lower_bound(tree_.begin(), tree_.end(), e));
    graph::Dsu dsu(g.node_count());
    for (const graph::EdgeIdx t : tree_) dsu.unite(g.edge(t).u, g.edge(t).v);
    std::vector<char> side(g.node_count());
    const auto root = dsu.find(u);
    for (graph::NodeId v = 0; v < g.node_count(); ++v) {
      side[v] = dsu.find(v) == root ? 1 : 0;
    }
    if (const auto repl = graph::min_cut_edge(g, side)) {
      tree_.insert(std::lower_bound(tree_.begin(), tree_.end(), *repl), *repl);
    }
  }

  std::vector<graph::EdgeIdx> tree_;  // ascending, like marked_edges()
};

Counters churn_visit(const WorkloadDef& def, const workload::UpdateTrace& trace,
                     Tracer& tracer, HostSpeed& speed, scenario::World& w,
                     PassResult& r, Visit& v) {
  MsfOracle oracle(w.trees().marked_edges());
  core::SessionOptions opts;
  opts.check_oracle = false;
  opts.keep_log = false;
  core::MaintenanceSession session(w.graph(), w.trees(), w.network(),
                                   core::ForestKind::kMst, opts);
  Counters c;
  r.oracle_s.push_back(0.0);
  int done = 0;
  for (const core::UpdateOp& op : trace.ops) {
    if (done % kSpeedSampleEvery == 0) speed.sample();
    const MsfOracle::Before b = oracle.before(w.graph(), op);
    bool applied = false;
    core::RepairAction action = core::RepairAction::kNone;
    const double t = timed(tracer, "core::MaintenanceSession::apply", [&] {
      const core::OpRecord& rec = session.apply(op);
      applied = rec.applied;
      action = rec.action;
    });
    v.task_raw_s += t;
    v.task_s += t * speed.scale();
    v.op_ms.push_back(t * speed.scale() * 1e3);
    c.actions[static_cast<std::size_t>(action)] += 1;
    c.op_actions.push_back(action);

    bool ok = applied && action != core::RepairAction::kSearchFailed;
    r.oracle_s.back() +=
        speed.scale() * timed(tracer, "harness::msf_oracle", [&] {
          oracle.after(w.graph(), op, b);
          ok = w.trees().marked_edges() == oracle.edges() && ok;
        });
    if (++done % kFullCheckEvery == 0 || done == def.ops) {
      ok = kruskal_check(tracer, speed, w, r) && ok;
    }
    r.attempted += 1;
    r.failed += ok ? 0 : 1;
  }
  const sim::Metrics cost = session.total_cost();
  c.messages = cost.messages;
  c.rounds = cost.rounds;
  c.bcast_echoes = cost.broadcast_echoes;
  if (!audit(tracer, speed, w, r)) r.failed += 1;
  return c;
}

}  // namespace

std::string WorkloadDef::describe() const {
  std::ostringstream os;
  os << "workload=" << name << " family=" << scenario::family_name(graph.family)
     << " n=" << graph.n;
  if (graph.m != 0) os << " m=" << graph.m;
  if (graph.family == scenario::GraphFamily::kIGridLong) {
    os << " links=" << graph.aux;
  }
  os << " max_weight=" << graph.weights.max_weight
     << " backend=" << scenario::backend_name(graph.backend)
     << " net=" << scenario::net_kind_name(net.kind);
  if (net.kind == scenario::NetKind::kAsync) {
    os << " max_delay=" << net.async_cfg.max_delay;
  }
  os << " task=" << (churn ? "uniform_trace_apply" : "build_mst")
     << " worlds_per_cycle=" << worlds;
  if (churn) os << " ops_per_world=" << ops;
  return os.str();
}

std::optional<WorkloadDef> find_workload(const std::string& name) {
  for (WorkloadDef& d : all_workloads()) {
    if (d.name == name) return std::move(d);
  }
  return std::nullopt;
}

std::vector<std::string> workload_names() {
  std::vector<std::string> out;
  for (const WorkloadDef& d : all_workloads()) out.push_back(d.name);
  return out;
}

PassResult run_pass(const WorkloadDef& def, std::uint64_t seed,
                    double budget_s, Tracer& tracer, HostSpeed& speed,
                    scenario::World* finished) {
  PassResult r;
  const auto worlds = static_cast<std::size_t>(def.worlds);
  std::vector<Visit> best(worlds);
  std::vector<Counters> first(worlds);
  std::vector<std::optional<workload::UpdateTrace>> traces(worlds);
  const workload::WorkloadSpec spec =
      workload::WorkloadSpec::of(workload::WorkloadKind::kUniform, def.ops);

  scenario::World w;
  const std::uint64_t start = now_ns();
  const Scope pass(tracer, "harness::pass");
  for (;;) {
    const std::uint64_t cycle_start = now_ns();
    for (std::size_t i = 0; i < worlds; ++i) {
      const Scope visit(tracer, "harness::world");
      const std::uint64_t ws = world_seed(seed, static_cast<int>(i));
      Visit v;
      release(w);
      speed.sample();
      set_up(def, ws, tracer, speed, w, v);
      if (def.churn && !traces[i]) {
        r.trace_gen_s.push_back(
            speed.scale() * timed(tracer, "workload::generate_trace", [&] {
              traces[i] = workload::generate_trace(
                  w.graph(), spec, util::mix_seeds(ws, workload::kTraceSeedSalt));
            }));
      }
      const Counters c =
          def.churn ? churn_visit(def, *traces[i], tracer, speed, w, r, v)
                    : build_visit(tracer, speed, w, r, v);
      if (r.cycles == 0) {
        r.first_cycle_s += v.setup_s + v.task_s;
        first[i] = c;
        add_counters(r, c);
        best[i] = std::move(v);
        continue;
      }
      r.counters_drifted = r.counters_drifted || !(c == first[i]);
      Visit& b = best[i];
      b.setup_s = std::min(b.setup_s, v.setup_s);
      b.generate_s = std::min(b.generate_s, v.generate_s);
      b.premark_s = std::min(b.premark_s, v.premark_s);
      b.task_s = std::min(b.task_s, v.task_s);
      b.setup_raw_s = std::min(b.setup_raw_s, v.setup_raw_s);
      b.task_raw_s = std::min(b.task_raw_s, v.task_raw_s);
      for (std::size_t j = 0; j < b.op_ms.size(); ++j) {
        b.op_ms[j] = std::min(b.op_ms[j], v.op_ms[j]);
      }
    }
    const double cycle_s = static_cast<double>(now_ns() - cycle_start) * 1e-9;
    ++r.cycles;
    // Start another cycle only if one more is expected to fit the budget.
    const double elapsed_s = static_cast<double>(now_ns() - start) * 1e-9;
    if (elapsed_s + cycle_s > budget_s) break;
  }

  for (std::size_t i = 0; i < worlds; ++i) {
    const Visit& b = best[i];
    r.setup_s.push_back(b.setup_s);
    r.generate_s.push_back(b.generate_s);
    if (def.churn) r.premark_s.push_back(b.premark_s);
    r.task_s.push_back(b.task_s);
    r.setup_raw_s.push_back(b.setup_raw_s);
    r.task_raw_s.push_back(b.task_raw_s);
    for (std::size_t j = 0; j < b.op_ms.size(); ++j) {
      r.op_ms.push_back(b.op_ms[j]);
      r.op_class.emplace_back(traces[i]->ops[j].kind, first[i].op_actions[j]);
    }
  }
  if (finished != nullptr) *finished = std::move(w);
  return r;
}

}  // namespace kkt::perfbench
