#include "scenario/scenario.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "graph/implicit.h"
#include "graph/mst_oracle.h"
#include "scenario/sweep.h"
#include "util/rng.h"

namespace kkt::scenario {

const char* family_name(GraphFamily f) noexcept {
  switch (f) {
    case GraphFamily::kGnm: return "gnm";
    case GraphFamily::kGnp: return "gnp";
    case GraphFamily::kComplete: return "complete";
    case GraphFamily::kRing: return "ring";
    case GraphFamily::kGrid: return "grid";
    case GraphFamily::kBarbell: return "barbell";
    case GraphFamily::kGeometric: return "geometric";
    case GraphFamily::kPreferential: return "pa";
    case GraphFamily::kRandomTree: return "tree";
    case GraphFamily::kHierarchical: return "hier";
    case GraphFamily::kIComplete: return "icomplete";
    case GraphFamily::kIGridLong: return "igridlong";
    case GraphFamily::kIGeometric: return "igeo";
  }
  return "?";
}

std::optional<GraphFamily> family_from_name(std::string_view name) noexcept {
  for (const GraphFamily f :
       {GraphFamily::kGnm, GraphFamily::kGnp, GraphFamily::kComplete,
        GraphFamily::kRing, GraphFamily::kGrid, GraphFamily::kBarbell,
        GraphFamily::kGeometric, GraphFamily::kPreferential,
        GraphFamily::kRandomTree, GraphFamily::kHierarchical,
        GraphFamily::kIComplete, GraphFamily::kIGridLong,
        GraphFamily::kIGeometric}) {
    if (name == family_name(f)) return f;
  }
  return std::nullopt;
}

const char* backend_name(GraphBackend b) noexcept {
  switch (b) {
    case GraphBackend::kAuto: return "auto";
    case GraphBackend::kAdjacency: return "adjacency";
  }
  return "?";
}

const char* net_kind_name(NetKind k) noexcept {
  switch (k) {
    case NetKind::kSync: return "sync";
    case NetKind::kAsync: return "async";
    case NetKind::kAdversarial: return "adversarial";
  }
  return "?";
}

std::optional<NetKind> net_kind_from_name(std::string_view name) noexcept {
  for (const NetKind k :
       {NetKind::kSync, NetKind::kAsync, NetKind::kAdversarial}) {
    if (name == net_kind_name(k)) return k;
  }
  return std::nullopt;
}

namespace {

// The family's own generator, on its own backend.
graph::Graph generate(const GraphSpec& spec, std::uint64_t seed) {
  util::Rng rng(seed);
  const graph::Weight maxw = spec.weights.max_weight;
  switch (spec.family) {
    case GraphFamily::kGnm: {
      std::size_t m = spec.m;
      if (spec.clamp_m) {
        m = std::min(m, spec.n * (spec.n - 1) / 2);
        if (spec.n >= 1) m = std::max(m, spec.n - 1);
      }
      return graph::random_connected_gnm(spec.n, m, spec.weights, rng);
    }
    case GraphFamily::kGnp:
      return graph::gnp(spec.n, spec.param, spec.weights, rng);
    case GraphFamily::kComplete:
      return graph::complete(spec.n, spec.weights, rng);
    case GraphFamily::kRing:
      return graph::ring(spec.n, spec.weights, rng);
    case GraphFamily::kGrid:
      return graph::grid(spec.n, spec.aux, spec.weights, rng);
    case GraphFamily::kBarbell:
      return graph::barbell(spec.n, spec.aux, spec.weights, rng);
    case GraphFamily::kGeometric:
      return graph::random_geometric(spec.n, spec.param, spec.weights, rng);
    case GraphFamily::kPreferential:
      return graph::preferential_attachment(spec.n, spec.aux, spec.weights,
                                            rng);
    case GraphFamily::kRandomTree:
      return graph::random_tree(spec.n, spec.weights, rng);
    case GraphFamily::kHierarchical:
      return graph::hierarchical_complete(static_cast<int>(spec.aux), rng);
    case GraphFamily::kIComplete:
      return graph::make_implicit_graph({spec.n, seed, maxw});
    case GraphFamily::kIGridLong:
      return graph::igridlong(spec.n, spec.aux > 0 ? spec.aux : 2, seed, maxw);
    case GraphFamily::kIGeometric:
      return graph::igeo(spec.n, spec.param > 0.0 ? spec.param : 8.0, seed,
                         maxw);
  }
  assert(false && "unknown graph family");
  return graph::complete(1, spec.weights, rng);
}

}  // namespace

std::optional<std::string> graph_spec_error(const GraphSpec& spec) {
  const std::string family = family_name(spec.family);
  const auto below = [&family](const char* what, std::size_t got,
                               std::size_t min) -> std::optional<std::string> {
    if (got >= min) return std::nullopt;
    return family + " needs " + what + " >= " + std::to_string(min) +
           " (got " + std::to_string(got) + ")";
  };
  if (spec.weights.max_weight < 1) return "max weight must be >= 1";
  switch (spec.family) {
    case GraphFamily::kGnm: {
      if (auto e = below("n", spec.n, 1)) return e;
      const std::size_t max_m = spec.n * (spec.n - 1) / 2;
      if (!spec.clamp_m && (spec.m + 1 < spec.n || spec.m > max_m)) {
        return family + " needs n-1 <= m <= " + std::to_string(max_m) +
               " (got m=" + std::to_string(spec.m) + ")";
      }
      return std::nullopt;
    }
    case GraphFamily::kGnp:
      if (!(spec.param >= 0.0 && spec.param <= 1.0)) {
        return family + " needs an edge probability in [0, 1] (got " +
               std::to_string(spec.param) + ")";
      }
      return below("n", spec.n, 1);
    case GraphFamily::kRing:
      return below("n", spec.n, 3);
    case GraphFamily::kGrid:
      if (auto e = below("n (rows)", spec.n, 1)) return e;
      return below("cols", spec.aux, 1);
    case GraphFamily::kBarbell:
      if (auto e = below("n (clique size)", spec.n, 2)) return e;
      return below("path length", spec.aux, 1);
    case GraphFamily::kPreferential:
      if (auto e = below("k (attachments)", spec.aux, 1)) return e;
      return below("n", spec.n, spec.aux + 1);
    case GraphFamily::kHierarchical:
      if (spec.aux > 12) {
        return family + " needs levels <= 12 (got " +
               std::to_string(spec.aux) + ")";
      }
      return below("levels", spec.aux, 1);
    case GraphFamily::kComplete:
    case GraphFamily::kGeometric:
    case GraphFamily::kRandomTree:
      return below("n", spec.n, 1);
    case GraphFamily::kIComplete:
    case GraphFamily::kIGridLong:
    case GraphFamily::kIGeometric:
      if (spec.weights.max_weight > (graph::Weight{1} << 31)) {
        return family + " needs max weight <= 2^31";
      }
      if (spec.family == GraphFamily::kIGridLong && spec.aux > 64) {
        return family + " needs long links <= 64 (got " +
               std::to_string(spec.aux) + ")";
      }
      return below("n", spec.n,
                   spec.family == GraphFamily::kIGridLong ? 4 : 2);
  }
  return family + " is not a known family";
}

void use_mutable_backend(GraphSpec& spec) {
  spec.backend = GraphBackend::kAdjacency;
}

graph::Graph build_graph(const GraphSpec& spec, std::uint64_t seed) {
  graph::Graph g = generate(spec, seed);
  if (spec.backend == GraphBackend::kAdjacency &&
      g.backend() != graph::Graph::Backend::kAdjacency) {
    return g.clone();
  }
  return g;
}

std::unique_ptr<sim::Network> make_network(const graph::Graph& g,
                                           const NetSpec& spec,
                                           std::uint64_t seed) {
  sim::DeliveryPolicy policy = sim::DeliveryPolicy::sync();
  if (spec.kind == NetKind::kAsync) {
    policy = sim::DeliveryPolicy::async(spec.async_cfg.max_delay);
  } else if (spec.kind == NetKind::kAdversarial) {
    policy = sim::DeliveryPolicy::adversarial(spec.adversarial_cfg);
  }
  return std::make_unique<sim::Network>(g, seed, policy);
}

World make_world(std::unique_ptr<graph::Graph> g, const NetSpec& net,
                 std::uint64_t net_seed) {
  World w;
  w.g = std::move(g);
  w.forest = std::make_unique<graph::MarkedForest>(*w.g);
  w.net = make_network(*w.g, net, net_seed);
  return w;
}

World make_world(const Scenario& sc) {
  auto g = std::make_unique<graph::Graph>(build_graph(sc.graph, sc.seed));
  World w = make_world(std::move(g), sc.net,
                       sc.net_seed.value_or(sc.seed ^ kNetSeedSalt));
  if (sc.premark_msf) w.mark_msf();
  return w;
}

void World::mark_msf() {
  for (graph::EdgeIdx e : graph::kruskal_msf(*g)) forest->mark_edge(e);
}

sim::Metrics run_scenario(const Scenario& sc, const ScenarioBody& body) {
  World w = make_world(sc);
  body(w);
  return w.net->metrics();
}

std::vector<sim::Metrics> run_sweep(Scenario sc, std::uint64_t first_seed,
                                    int count, const ScenarioBody& body,
                                    int threads) {
  // A pinned net_seed stays pinned for every run; otherwise make_world
  // re-derives it from each sweep seed. Each job copies the scenario, so
  // concurrent runs never share a descriptor.
  const SweepExecutor executor(threads);
  return executor.map(count, [&sc, first_seed, &body](int i) {
    Scenario run = sc;
    run.seed = first_seed + static_cast<std::uint64_t>(i);
    return run_scenario(run, body);
  });
}

}  // namespace kkt::scenario
