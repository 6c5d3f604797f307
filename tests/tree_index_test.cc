// graph::MarkedForest (graph/forest.h) keeps every mark in its per-node
// tree index. This test drives it with random marking (and, on the mutable
// adjacency backend, topology) mutations on every backend and checks each
// read against an independent shadow model: plain per-edge half marks and
// epochs, updated by the same ops. TreeView::neighbors(v) must yield
// exactly the incidence-row-ordered edges the model calls marked -- the
// full-row filter TreeView used before the index existed -- for every node
// and every epoch limit.
// Each random step also runs the verify_state() audit, before the reads
// (a missed reorder or a stale mirror shows up there) and after them
// (reorders must leave a consistent store).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "graph/forest.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/implicit.h"
#include "graph/mst_oracle.h"
#include "graph/store.h"
#include "test_util.h"
#include "util/rng.h"

namespace kkt::graph {
namespace {

constexpr std::uint32_t kEpochLimits[] = {0u, 1u, 3u, ~std::uint32_t{0}};

// The reference: what each endpoint has marked, per edge slot. Side 0 is
// the edge's u, side 1 its v; an unmarked half has epoch 0.
class ShadowMarks {
 public:
  explicit ShadowMarks(const Graph& g) : g_(&g) {}

  void mark_half(EdgeIdx e, NodeId end, std::uint32_t epoch) {
    half(e, end) = {true, epoch};
  }
  void unmark_half(EdgeIdx e, NodeId end) { half(e, end) = {}; }
  void mark_edge(EdgeIdx e, std::uint32_t epoch) {
    mark_half(e, g_->edge(e).u, epoch);
    mark_half(e, g_->edge(e).v, epoch);
  }
  void clear_edge(EdgeIdx e) {
    unmark_half(e, g_->edge(e).u);
    unmark_half(e, g_->edge(e).v);
  }
  void clear_all() { halves_.clear(); }

  bool half_marked(EdgeIdx e, NodeId end) { return half(e, end).marked; }
  std::uint32_t mark_epoch(EdgeIdx e) {
    return std::max(side(e, 0).epoch, side(e, 1).epoch);
  }
  bool is_marked_at(EdgeIdx e, std::uint32_t limit) {
    return side(e, 0).marked && side(e, 1).marked && g_->alive(e) &&
           mark_epoch(e) <= limit;
  }
  bool properly_marked() {
    for (EdgeIdx e = 0; e < g_->edge_slots(); ++e) {
      if (side(e, 0).marked != side(e, 1).marked) return false;
    }
    return true;
  }
  std::vector<EdgeIdx> marked_edges() {
    std::vector<EdgeIdx> out;
    for (EdgeIdx e = 0; e < g_->edge_slots(); ++e) {
      if (is_marked_at(e, ~std::uint32_t{0})) out.push_back(e);
    }
    return out;
  }
  std::uint32_t max_mark_epoch() {
    std::uint32_t best = 0;
    for (const EdgeIdx e : marked_edges()) best = std::max(best, mark_epoch(e));
    return best;
  }
  std::vector<Incidence> neighbors(NodeId v, std::uint32_t limit) {
    std::vector<Incidence> out;
    for (const Incidence& inc : g_->incident(v)) {
      if (is_marked_at(inc.edge, limit)) out.push_back(inc);
    }
    return out;
  }

 private:
  struct Half {
    bool marked = false;
    std::uint32_t epoch = 0;
  };
  Half& side(EdgeIdx e, int s) {
    const std::size_t need = 2 * (static_cast<std::size_t>(e) + 1);
    if (halves_.size() < need) halves_.resize(need);
    return halves_[2 * static_cast<std::size_t>(e) + s];
  }
  Half& half(EdgeIdx e, NodeId end) {
    return side(e, end == g_->edge(e).u ? 0 : 1);
  }

  const Graph* g_;
  std::vector<Half> halves_;
};

// Every read of the forest against the model, at every edge slot and the
// four epoch limits; `nodes` lists the nodes whose neighbors to compare.
void expect_matches(const MarkedForest& f, ShadowMarks& model,
                    const std::vector<NodeId>& nodes) {
  const Graph& g = f.graph();
  for (EdgeIdx e = 0; e < g.edge_slots(); ++e) {
    const Edge ed = g.edge(e);
    ASSERT_EQ(f.half_marked(e, ed.u), model.half_marked(e, ed.u)) << e;
    ASSERT_EQ(f.half_marked(e, ed.v), model.half_marked(e, ed.v)) << e;
    ASSERT_EQ(f.mark_epoch(e), model.mark_epoch(e)) << e;
    ASSERT_EQ(f.is_marked(e), model.is_marked_at(e, ~std::uint32_t{0})) << e;
    for (const std::uint32_t limit : kEpochLimits) {
      ASSERT_EQ(f.is_marked_at(e, limit), model.is_marked_at(e, limit))
          << "edge " << e << " limit " << limit;
    }
  }
  ASSERT_EQ(f.marked_edges(), model.marked_edges());
  ASSERT_EQ(f.max_mark_epoch(), model.max_mark_epoch());
  ASSERT_EQ(f.properly_marked(), model.properly_marked());
  for (const NodeId v : nodes) {
    for (const std::uint32_t limit : kEpochLimits) {
      const TreeView view(f, limit);
      const std::vector<Incidence> want = model.neighbors(v, limit);
      std::vector<Incidence> got;
      for (const Incidence& inc : view.neighbors(v)) got.push_back(inc);
      ASSERT_EQ(got.size(), want.size()) << "node " << v << " limit " << limit;
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i].edge, want[i].edge) << "node " << v << " entry " << i;
        ASSERT_EQ(got[i].peer, want[i].peer) << "node " << v << " entry " << i;
      }
      ASSERT_EQ(view.degree(v), want.size()) << "node " << v;
    }
  }
}

struct Backend {
  std::string name;
  std::function<Graph()> make;
  bool can_mutate = false;  // only the adjacency backend changes topology
};

// gtest's default printer dumps the raw bytes, which start with the name's
// heap address, so the listed test names changed from run to run.
void PrintTo(const Backend& b, std::ostream* os) { *os << b.name; }

Graph gnm(std::uint64_t seed) {
  util::Rng rng(seed);
  return random_connected_gnm(40, 160, {1u << 12}, rng);
}

std::vector<Backend> backends() {
  return {
      {"adjacency", [] { return gnm(3); }, true},
      {"mapped",
       [] {
         const std::string path = test::temp_store_path("tree_index");
         std::string error;
         EXPECT_TRUE(pack_store(path, gnm(4), &error)) << error;
         auto store = FrozenStore::open(path, &error);
         EXPECT_NE(store, nullptr) << error;
         std::remove(path.c_str());  // the mapping outlives the entry
         return Graph::from_store(std::move(store));
       },
       false},
      {"implicit_grid",
       [] {
         return igridlong(/*n=*/64, /*long_links=*/2, /*seed=*/5);
       },
       false},
      {"implicit_complete",
       [] {
         return make_implicit_graph({/*n=*/20, /*seed=*/6});
       },
       false},
  };
}

class TreeIndexEquivalence : public ::testing::TestWithParam<Backend> {};

TEST_P(TreeIndexEquivalence, RandomMutationsMatchFullScan) {
  const Backend& b = GetParam();
  Graph g = b.make();
  MarkedForest f(g);
  ShadowMarks model(g);
  util::Rng rng(0x7ee + g.node_count());
  const auto random_node = [&] {
    return static_cast<NodeId>(rng.below(g.node_count()));
  };
  const auto random_alive_edge = [&] {
    const std::vector<EdgeIdx> alive = g.alive_edge_indices();
    return alive[rng.below(alive.size())];
  };
  std::vector<NodeId> all_nodes(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) all_nodes[v] = v;

  for (int step = 0; step < 600; ++step) {
    // Any slot, dead ones included: marks on deleted edges must stay out of
    // the walks and every alive-only read.
    const auto e = static_cast<EdgeIdx>(rng.below(g.edge_slots()));
    const Edge ed = g.edge(e);
    const NodeId end = rng.coin() ? ed.u : ed.v;
    const auto epoch = static_cast<std::uint32_t>(rng.below(5));
    const std::uint64_t op = rng.below(100);
    if (op < 35) {
      f.mark_half(e, end, epoch);
      model.mark_half(e, end, epoch);
    } else if (op < 55) {
      f.unmark_half(e, end);
      model.unmark_half(e, end);
    } else if (op < 65) {
      f.mark_edge(e, epoch);
      model.mark_edge(e, epoch);
    } else if (op < 73) {
      f.clear_edge(e);
      model.clear_edge(e);
    } else if (op < 75) {
      f.clear_all();
      model.clear_all();
    } else if (!b.can_mutate) {
      // Read-only backends: marks only.
    } else if (op < 87) {
      const NodeId u = random_node();
      const NodeId v = random_node();
      if (u != v && !g.find_edge(u, v).has_value()) {
        const EdgeIdx added = g.add_edge(u, v, 1 + rng.below(1u << 12));
        if (rng.coin()) {
          f.mark_edge(added, epoch);
          model.mark_edge(added, epoch);
        }
      }
    } else if (g.edge_count() > g.node_count()) {
      // Remove a marked edge half the time: the row reorder (swap with
      // last) must reach the index through the row version.
      const std::vector<EdgeIdx> marked = model.marked_edges();
      g.remove_edge(rng.coin() && !marked.empty()
                        ? marked[rng.below(marked.size())]
                        : random_alive_edge());
    }
    ASSERT_TRUE(f.verify_state()) << b.name << " step " << step;

    // Walk every node on even steps, a few on odd ones, so some lists stay
    // stale across several mutations.
    if (step % 2 == 0) {
      expect_matches(f, model, all_nodes);
    } else {
      expect_matches(f, model, {random_node(), random_node(), random_node()});
    }
    if (::testing::Test::HasFatalFailure()) return;
    ASSERT_TRUE(f.verify_state()) << b.name << " step " << step;
  }
  f.clear_all();
  model.clear_all();
  expect_matches(f, model, all_nodes);
  EXPECT_TRUE(f.marked_edges().empty());
  EXPECT_TRUE(f.verify_state());
}

INSTANTIATE_TEST_SUITE_P(
    Backends, TreeIndexEquivalence, ::testing::ValuesIn(backends()),
    [](const ::testing::TestParamInfo<Backend>& info) {
      return info.param.name;
    });

// clear_all() used to zero the marks but keep the epochs, so a cleared
// edge reported its old epoch; clear_edge() zeroes both. They now agree.
TEST(TreeIndex, ClearAllResetsEpochsLikeClearEdge) {
  const Graph g = gnm(11);
  MarkedForest by_edge(g);
  MarkedForest by_all(g);
  const EdgeIdx e = 0;
  const Edge ed = g.edge(e);
  by_edge.mark_edge(e, 7);
  by_all.mark_edge(e, 7);
  by_edge.clear_edge(e);
  by_all.clear_all();
  EXPECT_EQ(by_edge.mark_epoch(e), 0u);
  EXPECT_EQ(by_all.mark_epoch(e), 0u);

  // Re-marking one half must not resurrect the stale epoch of the other.
  by_all.mark_half(e, ed.u, 2);
  by_edge.mark_half(e, ed.u, 2);
  EXPECT_EQ(by_all.mark_epoch(e), by_edge.mark_epoch(e));
  by_all.mark_half(e, ed.v, 2);
  EXPECT_TRUE(by_all.is_marked_at(e, 2));
}

// clear_all() also drops the whole index: nothing is reachable afterwards,
// and fresh marks start new entries.
TEST(TreeIndex, ClearAllInvalidatesEveryNode) {
  const Graph g = gnm(12);
  MarkedForest f(g);
  for (EdgeIdx e : kruskal_msf(g)) f.mark_edge(e);
  const TreeView view(f);
  for (NodeId v = 0; v < g.node_count(); ++v) (void)view.degree(v);
  f.clear_all();
  ASSERT_TRUE(f.verify_state());
  for (NodeId v = 0; v < g.node_count(); ++v) EXPECT_EQ(view.degree(v), 0u);
  f.mark_edge(3);
  const Edge ed = g.edge(3);
  EXPECT_EQ(view.degree(ed.u), 1u);
  EXPECT_EQ(view.degree(ed.v), 1u);
  EXPECT_TRUE(f.verify_state());
}

// The per-node row version moves exactly for the endpoints of a topology
// change; weight changes keep rows intact.
TEST(TreeIndex, RowVersionBumpsOnlyEndpoints) {
  Graph adj = gnm(13);
  std::vector<std::uint32_t> before(adj.node_count());
  for (NodeId v = 0; v < adj.node_count(); ++v) before[v] = adj.row_version(v);
  const EdgeIdx e = adj.alive_edge_indices().front();
  const Edge ed = adj.edge(e);
  adj.remove_edge(e);
  for (NodeId v = 0; v < adj.node_count(); ++v) {
    EXPECT_EQ(adj.row_version(v) != before[v], v == ed.u || v == ed.v)
        << "node " << v;
  }
  const EdgeIdx kept = adj.alive_edge_indices().front();
  const Edge ked = adj.edge(kept);
  const std::uint32_t u_before = adj.row_version(ked.u);
  adj.set_weight(kept, 99);
  EXPECT_EQ(adj.row_version(ked.u), u_before);
  NodeId a = 0;
  NodeId c = 1;
  while (adj.find_edge(a, c).has_value()) ++c;
  const std::uint32_t a_before = adj.row_version(a);
  adj.add_edge(a, c, 5);
  EXPECT_NE(adj.row_version(a), a_before);
}

}  // namespace
}  // namespace kkt::graph
