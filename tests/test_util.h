// Shared fixtures and helpers for the test suite.
//
// World construction is the kkt_scenario library's job; these wrappers pin
// the test suite's historical seed derivations (net seed = seed ^
// 0x9e3779b9 for generated worlds) so expected values in long-lived tests
// survive the scenario rebase.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/forest.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/mst_oracle.h"
#include "scenario/scenario.h"
#include "sim/metrics.h"
#include "util/rng.h"

namespace kkt::test {

using scenario::NetKind;
using World = scenario::World;

inline constexpr std::uint64_t kTestNetSeedSalt = 0x9e3779b9;

inline World make_world(std::unique_ptr<graph::Graph> g, std::uint64_t seed,
                        NetKind kind = NetKind::kSync) {
  scenario::NetSpec net;
  net.kind = kind;
  return scenario::make_world(std::move(g), net, seed);
}

// Connected G(n, m) scenario with the test-suite seed discipline; m is
// clamped for tiny n in sweeps.
inline scenario::Scenario gnm_scenario(std::size_t n, std::size_t m,
                                       std::uint64_t seed,
                                       NetKind kind = NetKind::kSync,
                                       graph::Weight max_weight = 1u << 20) {
  scenario::Scenario sc;
  sc.graph = scenario::GraphSpec::gnm(n, m, max_weight);
  sc.graph.clamp_m = true;
  sc.net.kind = kind;
  sc.seed = seed;
  sc.net_seed = seed ^ kTestNetSeedSalt;
  return sc;
}

// Connected G(n, m) world.
inline World make_gnm_world(std::size_t n, std::size_t m, std::uint64_t seed,
                            NetKind kind = NetKind::kSync,
                            graph::Weight max_weight = 1u << 20) {
  return scenario::make_world(gnm_scenario(n, m, seed, kind, max_weight));
}

// Connected G(n, m) world on an explicit network spec.
inline World make_gnm_world(std::size_t n, std::size_t m, std::uint64_t seed,
                            const scenario::NetSpec& net) {
  scenario::Scenario sc = gnm_scenario(n, m, seed);
  sc.net = net;
  return scenario::make_world(sc);
}

// The sync schedule spelled through the adversarial factory: bounds
// {1, 1} and no jitter fix every delay at one tick. Comparing it with
// NetSpec::sync() pins the factory's clamping against the synchronous
// schedule's.
inline scenario::NetSpec unit_adversarial_net() {
  sim::AdversarialConfig cfg;
  cfg.min_delay = 1;
  cfg.max_delay = 1;
  cfg.reorder_window = 0;
  return scenario::NetSpec::adversarial(cfg);
}

// A temporary .kkg path for `name`, keyed by the running test too: ctest
// -j runs every case in its own process, and cases that share a name would
// otherwise race on one file. The '/' of parameterised test names becomes
// '_' so the path stays in the temp directory.
inline std::string temp_store_path(const std::string& name) {
  const auto* test = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string key = test != nullptr ? std::string(test->name()) + "_" : "";
  std::replace(key.begin(), key.end(), '/', '_');
  return ::testing::TempDir() + "kkt_store_" + key + name + ".kkg";
}

// Marks the minimum spanning forest (by Kruskal) into the world's forest.
inline std::vector<graph::EdgeIdx> mark_msf(World& w) {
  const auto msf = graph::kruskal_msf(*w.g);
  for (graph::EdgeIdx e : msf) w.forest->mark_edge(e);
  return msf;
}

// Membership flags of the marked-subgraph component containing root.
inline std::vector<char> side_of(const World& w, graph::NodeId root) {
  std::vector<char> side(w.g->node_count(), 0);
  for (graph::NodeId v : w.forest->component_of(root)) side[v] = 1;
  return side;
}

// Resolves an edge number to the alive edge index (test bookkeeping).
inline std::optional<graph::EdgeIdx> edge_by_num(const graph::Graph& g,
                                                 graph::EdgeNum num) {
  for (graph::EdgeIdx e : g.alive_edge_indices()) {
    if (g.edge_num(e) == num) return e;
  }
  return std::nullopt;
}

// The whole Metrics block as one string (per-tag counts and bits of every
// tag that saw traffic): fixed-seed pins compare against it, so a mismatch
// names every counter that moved.
inline std::string describe(const sim::Metrics& m) {
  std::string out = "messages=" + std::to_string(m.messages) +
                    " bits=" + std::to_string(m.message_bits) +
                    " rounds=" + std::to_string(m.rounds) +
                    " echoes=" + std::to_string(m.broadcast_echoes) +
                    " oversized=" + std::to_string(m.oversized_messages) +
                    " dropped=" + std::to_string(m.dropped_deliveries) +
                    " state=" + std::to_string(m.peak_node_state_bits);
  for (std::size_t i = 0; i < m.per_tag.size(); ++i) {
    if (m.per_tag[i] == 0 && m.per_tag_bits[i] == 0) continue;
    out += std::string(" ") + sim::tag_name(static_cast<sim::Tag>(i)) + "=" +
           std::to_string(m.per_tag[i]) + "/" +
           std::to_string(m.per_tag_bits[i]);
  }
  return out;
}

}  // namespace kkt::test
