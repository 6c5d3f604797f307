// Scenario descriptors: graph family x network kind x seed, one entry point.
//
// Every experiment in this repo is the same sandwich: generate a topology,
// pick a transport, wire a MarkedForest, run an algorithm, read Metrics.
// The benches, examples and integration tests used to each carry their own
// copy of that setup; this library owns it instead. A Scenario is a value
// describing the sandwich; run_scenario() executes one; run_sweep() executes
// a seed sweep of them.
//
//   scenario::Scenario sc;
//   sc.graph = scenario::GraphSpec::gnm(256, 2048);
//   sc.net.kind = scenario::NetKind::kAdversarial;
//   sc.seed = 42;
//   sim::Metrics cost = scenario::run_scenario(sc, [](scenario::World& w) {
//     core::build_mst(w.network(), w.trees());
//   });
//
// Seed discipline: the graph is generated from `seed`; the network draws
// its randomness from `net_seed`, which defaults to seed ^ kNetSeedSalt.
// Harnesses that predate this library pin their historical net-seed
// derivations (tools/bench_suites.cc, tests/test_util.h) so fixed-seed
// model-cost counters stay comparable across changes.
//
// Determinism contract (see docs/ARCHITECTURE.md): a Scenario value plus
// its seeds fully determines the world and every model-cost counter a run
// of it produces -- no entropy, time or address is ever read. run_sweep
// partitions work by seed slot, so its result vector (and any aggregate
// computed over it) is bit-identical at every thread count.
//
// Thread-safety: descriptors (GraphSpec, NetSpec, Scenario) are plain
// values -- copy freely across threads. A World is single-threaded: it is
// mutable simulator state owned by exactly one run. run_scenario and
// run_sweep are safe to call concurrently from distinct threads as long as
// the bodies touch no shared mutable state.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/forest.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "sim/delivery_policy.h"
#include "sim/metrics.h"
#include "sim/network.h"
#include "workload/spec.h"

namespace kkt::scenario {

// ---------------------------------------------------------------------------
// Graph descriptors
// ---------------------------------------------------------------------------

enum class GraphFamily {
  kGnm,           // connected G(n, m)                 (n, m)
  kGnp,           // Erdos-Renyi G(n, p)               (n, param = p)
  kComplete,      // K_n                               (n)
  kRing,          // cycle                             (n)
  kGrid,          // n x aux grid                      (n = rows, aux = cols)
  kBarbell,       // two K_n cliques + aux-edge path   (n = k, aux = path_len)
  kGeometric,     // random geometric on unit square   (n, param = radius)
  kPreferential,  // Barabasi-Albert                   (n, aux = attach k)
  kRandomTree,    // uniform random tree               (n)
  kHierarchical,  // GHS worst case, n = 2^aux         (aux = levels)
  // Seeded families: hash-defined topologies computable from (n, seed)
  // alone, so they run at web scale -- K_n computed on demand in O(n)
  // resident state (graph/implicit.h), igridlong / igeo generated straight
  // into the frozen CSR layout (graph/generators.h). clone() turns each
  // into an identical adjacency graph for workloads that mutate it.
  // igridlong takes at most 64 long links per node.
  kIComplete,     // implicit K_n, latin-square weights (n)
  kIGridLong,     // grid + long links                  (n ~ side^2, aux = links)
  kIGeometric,    // random geometric by mean degree    (n, param = mean degree)
};

// Family name for descriptors/CLIs ("gnm", "complete", ...).
const char* family_name(GraphFamily f) noexcept;
std::optional<GraphFamily> family_from_name(std::string_view name) noexcept;

// Storage backend requested of build_graph. kAuto keeps each generator's
// own: implicit K_n for icomplete, the read-only frozen CSR for igridlong /
// igeo, adjacency for the rest. kAdjacency asks for the mutable backend,
// which for the seeded families is the generated graph's clone() (see
// use_mutable_backend). A .kkg file is not a GraphSpec concern -- open it
// with graph::FrozenStore::open + Graph::from_store and hand it to
// make_world's custom-topology overload.
enum class GraphBackend { kAuto, kAdjacency };

const char* backend_name(GraphBackend b) noexcept;

struct GraphSpec {
  GraphFamily family = GraphFamily::kGnm;
  std::size_t n = 64;
  std::size_t m = 0;      // kGnm: edge count
  std::size_t aux = 0;    // kGrid: cols; kBarbell: path; kPreferential: k;
                          // kHierarchical: levels; kIGridLong: long links
  double param = 0.0;     // kGnp: p; kGeometric: radius; kIGeometric: degree
  graph::WeightSpec weights{};
  GraphBackend backend = GraphBackend::kAuto;
  // Clamp m into [n-1, n(n-1)/2] instead of asserting -- convenient for
  // sweeps that push tiny n.
  bool clamp_m = false;

  static GraphSpec gnm(std::size_t n, std::size_t m,
                       graph::Weight max_weight = 1u << 20) {
    GraphSpec s;
    s.family = GraphFamily::kGnm;
    s.n = n;
    s.m = m;
    s.weights = {max_weight};
    return s;
  }
  static GraphSpec complete(std::size_t n,
                            graph::Weight max_weight = 1u << 20) {
    GraphSpec s;
    s.family = GraphFamily::kComplete;
    s.n = n;
    s.weights = {max_weight};
    return s;
  }
  static GraphSpec hierarchical(int levels) {
    GraphSpec s;
    s.family = GraphFamily::kHierarchical;
    s.aux = static_cast<std::size_t>(levels);
    return s;
  }
  static GraphSpec icomplete(std::size_t n,
                             graph::Weight max_weight = 1u << 20) {
    GraphSpec s;
    s.family = GraphFamily::kIComplete;
    s.n = n;
    s.weights = {max_weight};
    return s;
  }
  static GraphSpec igridlong(std::size_t n, std::size_t long_links = 2,
                             graph::Weight max_weight = 1u << 20) {
    GraphSpec s;
    s.family = GraphFamily::kIGridLong;
    s.n = n;
    s.aux = long_links;
    s.weights = {max_weight};
    return s;
  }
  static GraphSpec igeo(std::size_t n, double target_degree = 8.0,
                        graph::Weight max_weight = 1u << 20) {
    GraphSpec s;
    s.family = GraphFamily::kIGeometric;
    s.n = n;
    s.param = target_degree;
    s.weights = {max_weight};
    return s;
  }
};

// Why build_graph cannot generate `spec` -- a size or parameter outside the
// family's range, which the generators only assert (compiled out in
// Release) -- or nullopt when it can. CLIs check this before building and
// report it as a usage error.
std::optional<std::string> graph_spec_error(const GraphSpec& spec);

// Resolves the backend of a graph a workload will mutate (churn, fault
// injection) to kAdjacency, the only mutable backend.
void use_mutable_backend(GraphSpec& spec);

// Generates the described topology from `seed` (one Rng, one pass -- the
// same bytes the legacy helpers produced for kGnm). `spec` must pass
// graph_spec_error.
graph::Graph build_graph(const GraphSpec& spec, std::uint64_t seed);

// ---------------------------------------------------------------------------
// Network descriptors
// ---------------------------------------------------------------------------

enum class NetKind { kSync, kAsync, kAdversarial };

const char* net_kind_name(NetKind k) noexcept;
std::optional<NetKind> net_kind_from_name(std::string_view name) noexcept;

struct NetSpec {
  NetKind kind = NetKind::kSync;
  sim::AsyncConfig async_cfg{};              // used when kind == kAsync
  sim::AdversarialConfig adversarial_cfg{};  // used when kind == kAdversarial

  static NetSpec sync() { return NetSpec{}; }
  static NetSpec async(sim::AsyncConfig cfg = {}) {
    NetSpec s;
    s.kind = NetKind::kAsync;
    s.async_cfg = cfg;
    return s;
  }
  static NetSpec adversarial(sim::AdversarialConfig cfg = {}) {
    NetSpec s;
    s.kind = NetKind::kAdversarial;
    s.adversarial_cfg = cfg;
    return s;
  }
};

std::unique_ptr<sim::Network> make_network(const graph::Graph& g,
                                           const NetSpec& spec,
                                           std::uint64_t seed);

// ---------------------------------------------------------------------------
// Scenario: the full descriptor
// ---------------------------------------------------------------------------

inline constexpr std::uint64_t kNetSeedSalt = 0x51ed;

struct Scenario {
  GraphSpec graph;
  NetSpec net;
  std::uint64_t seed = 1;
  // Network randomness; defaults to seed ^ kNetSeedSalt when unset.
  std::optional<std::uint64_t> net_seed;
  // Mark the Kruskal minimum spanning forest before the body runs (repair
  // scenarios start from a correct tree).
  bool premark_msf = false;
  // Optional dynamic-workload descriptor: churn harnesses
  // (workload::run_churn) generate an update trace from it; run_scenario
  // ignores it. The trace seed derives from `seed` (see workload/churn.h).
  std::optional<workload::WorkloadSpec> workload;
};

// A graph, its maintained forest, and a network -- heap-held so the
// aggregate is movable while internal pointers stay valid.
struct World {
  std::unique_ptr<graph::Graph> g;
  std::unique_ptr<graph::MarkedForest> forest;
  std::unique_ptr<sim::Network> net;

  graph::Graph& graph() { return *g; }
  graph::MarkedForest& trees() { return *forest; }
  sim::Network& network() { return *net; }

  // Marks the oracle minimum spanning forest into the forest.
  void mark_msf();
};

// Builds the world a Scenario describes.
World make_world(const Scenario& sc);

// Wraps a custom, pre-built topology (the escape hatch for worlds no
// generator covers). `net_seed` is used as-is.
World make_world(std::unique_ptr<graph::Graph> g, const NetSpec& net,
                 std::uint64_t net_seed);

// ---------------------------------------------------------------------------
// Execution
// ---------------------------------------------------------------------------

using ScenarioBody = std::function<void(World&)>;

// Builds the world, runs `body`, returns the accumulated model costs.
sim::Metrics run_scenario(const Scenario& sc, const ScenarioBody& body);

// Seed sweep: `count` runs with seeds first_seed, first_seed+1, ...
// (net_seed re-derived per seed unless the scenario pins it). Returns the
// per-seed metrics, in order. With threads > 1 the runs execute on a
// SweepExecutor pool (see sweep.h); each run owns its world, results land
// in seed order, so the returned vector -- and any aggregate computed from
// it -- is bit-identical for every thread count. `body` must then be safe
// to invoke concurrently.
std::vector<sim::Metrics> run_sweep(Scenario sc, std::uint64_t first_seed,
                                    int count, const ScenarioBody& body,
                                    int threads = 1);

}  // namespace kkt::scenario
