// Seeded-family oracles: every answer a generated graph serves -- implicit
// K_n (ImplicitCore) and the frozen igridlong / igeo CSR -- must match its
// clone() on the adjacency backend, which holds the same edge table and
// rows: degrees, incidence rows, aug-sorted rows, range windows, edge
// records, find_edge, max weight. The rows must also be exactly what
// inserting the edges with add_edge in index order builds, and the indices
// exactly the lexicographic ranks of the endpoint pairs, so a seeded graph
// is the same graph on every backend, not just up to relabeling.
//
// The XL smokes construct icomplete at n = 10^6 (edge ranks ~5*10^11, far
// beyond anything materialisable) and igridlong at n = 1048576, then probe
// sampled nodes -- degree, windows, decode round-trips -- without ever
// enumerating an edge set.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "graph/forest.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/implicit.h"
#include "test_util.h"
#include "util/rng.h"

namespace kkt::graph {
namespace {

// The families under test; the order fixes the parameterised test names.
enum class Family { kComplete, kGridLong, kGeometric };

const char* name_of(Family fam) {
  switch (fam) {
    case Family::kComplete: return "icomplete";
    case Family::kGridLong: return "igridlong";
    case Family::kGeometric: return "igeo";
  }
  return "?";
}

Graph small_graph(Family fam, std::uint64_t seed, Weight maxw = 1u << 20) {
  switch (fam) {
    case Family::kComplete:
      return make_implicit_graph({24, seed, maxw});
    case Family::kGridLong:
      return igridlong(36, 3, seed, maxw);
    case Family::kGeometric:
      break;
  }
  return igeo(40, 6.0, seed, maxw);
}

void expect_rows_match(const Graph& g, const Graph& mat, const char* what) {
  ASSERT_EQ(g.node_count(), mat.node_count()) << what;
  ASSERT_EQ(g.edge_slots(), mat.edge_slots()) << what;
  const auto n = static_cast<NodeId>(g.node_count());
  for (NodeId v = 0; v < n; ++v) {
    EXPECT_EQ(g.degree(v), mat.degree(v)) << what << " v=" << v;
    const std::span<const Incidence> row = g.incident(v);
    const std::span<const Incidence> mrow = mat.incident(v);
    ASSERT_EQ(row.size(), mrow.size()) << what << " v=" << v;
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(row[i].peer, mrow[i].peer) << what << " v=" << v << " i=" << i;
      EXPECT_EQ(row[i].edge, mrow[i].edge) << what << " v=" << v << " i=" << i;
    }
  }
}

void expect_same_augs(std::span<const AugWeight> got,
                      std::span<const AugWeight> want, const char* what,
                      NodeId v) {
  ASSERT_EQ(got.size(), want.size()) << what << " v=" << v;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want[i]) << what << " v=" << v << " i=" << i;
  }
}

// Sorted rows: K_n's closed-form windows, the frozen rows' per-node cache.
void expect_sorted_match(const Graph& g, const Graph& mat, const char* what) {
  for (NodeId v = 0; v < g.node_count(); ++v) {
    expect_same_augs(g.sorted_incident(v), mat.sorted_incident(v), what, v);
  }
}

// g's edges inserted with add_edge in index order; each must get its own
// index back.
Graph inserted_in_index_order(const Graph& g) {
  std::vector<ExtId> ids(g.node_count());
  for (NodeId v = 0; v < g.node_count(); ++v) ids[v] = g.ext_id(v);
  Graph h(std::move(ids));
  for (EdgeIdx e = 0; e < g.edge_slots(); ++e) {
    const Edge ed = g.edge(e);
    EXPECT_EQ(h.add_edge(ed.u, ed.v, ed.weight), e);
  }
  return h;
}

// Edge indices are the lexicographic ranks of the pairs (min, max).
void expect_lexicographic_ranks(const Graph& g, const char* what) {
  for (EdgeIdx e = 1; e < g.edge_slots(); ++e) {
    const Edge a = g.edge(e - 1), b = g.edge(e);
    EXPECT_LT(std::pair(std::min(a.u, a.v), std::max(a.u, a.v)),
              std::pair(std::min(b.u, b.v), std::max(b.u, b.v)))
        << what << " e=" << e;
  }
}

class FamilyOracle
    : public ::testing::TestWithParam<std::tuple<Family, std::uint64_t>> {};

TEST_P(FamilyOracle, RowsAndSortedRowsMatchMaterialized) {
  const auto [fam, seed] = GetParam();
  const Graph g = small_graph(fam, seed);
  const Graph mat = g.clone();
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(g.ext_id(v), mat.ext_id(v));
  }
  EXPECT_EQ(g.id_bits(), mat.id_bits());
  expect_rows_match(g, mat, name_of(fam));
  expect_rows_match(g, inserted_in_index_order(g), name_of(fam));
  expect_sorted_match(g, mat, name_of(fam));
}

TEST_P(FamilyOracle, EdgeDecodeAndFindEdgeMatch) {
  const auto [fam, seed] = GetParam();
  const Graph g = small_graph(fam, seed);
  const Graph mat = g.clone();
  expect_lexicographic_ranks(g, name_of(fam));
  for (EdgeIdx e = 0; e < g.edge_slots(); ++e) {
    const Edge ge = g.edge(e);
    const Edge me = mat.edge(e);
    EXPECT_EQ(ge.u, me.u) << "e=" << e;
    EXPECT_EQ(ge.v, me.v) << "e=" << e;
    EXPECT_EQ(ge.weight, me.weight) << "e=" << e;
    EXPECT_TRUE(ge.alive) << "e=" << e;
  }
  if (fam == Family::kComplete) {
    const ImplicitCore core({24, seed});
    for (EdgeIdx e = 0; e < core.edge_slots(); ++e) {
      const Edge ce = core.edge(e);
      EXPECT_EQ(core.rank_of(ce.u, ce.v), e);
    }
  }
  const auto n = static_cast<NodeId>(g.node_count());
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      EXPECT_EQ(g.find_edge(u, v), mat.find_edge(u, v))
          << "u=" << u << " v=" << v;
    }
  }
  EXPECT_EQ(g.max_weight(), mat.max_weight());
  EXPECT_EQ(g.max_edge_num(), mat.max_edge_num());
  EXPECT_EQ(g.alive_edge_indices(), mat.alive_edge_indices());
}

TEST_P(FamilyOracle, RangeWindowsMatchMaterialized) {
  const auto [fam, seed] = GetParam();
  // A small weight range forces ties, wrap-around segments and partial
  // boundary weight classes through the analytic complete window.
  const Graph g = small_graph(fam, seed, /*maxw=*/7);
  const Graph mat = g.clone();
  const int en_bits = g.edge_num_bits();
  for (NodeId v = 0; v < g.node_count(); ++v) {
    const std::span<const AugWeight> full = mat.sorted_incident(v);
    // Windows: full range, each single weight class, straddling ranges,
    // empty range, and exact aug endpoints.
    std::vector<std::pair<AugWeight, AugWeight>> windows = {
        {0, ~AugWeight{0}},
        {make_aug_weight(3, 0, en_bits), make_aug_weight(5, 0, en_bits)},
        {make_aug_weight(9, 0, en_bits), make_aug_weight(12, 0, en_bits)},
    };
    for (Weight w = 1; w <= 7; ++w) {
      windows.emplace_back(make_aug_weight(w, 0, en_bits),
                           make_aug_weight(w + 1, 0, en_bits) - 1);
    }
    if (!full.empty()) {
      windows.emplace_back(full.front(), full.back());
      windows.emplace_back(full.front() + 1, full.back() - 1);
      const std::size_t mid = full.size() / 2;
      windows.emplace_back(full[mid], full[mid]);
    }
    for (const auto& [lo, hi] : windows) {
      expect_same_augs(g.sorted_incident_range(v, lo, hi),
                       mat.sorted_incident_range(v, lo, hi), name_of(fam),
                       v);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, FamilyOracle,
    ::testing::Combine(::testing::Values(Family::kComplete, Family::kGridLong,
                                         Family::kGeometric),
                       ::testing::Values(1u, 7u, 1234u)));

// Grid size clamps to the largest square.
TEST(Implicit, GridClampsToSquare) {
  const Graph g = igridlong(/*n=*/40, 2, /*seed=*/3);  // 40 is not a square
  EXPECT_EQ(g.backend(), Graph::Backend::kFrozen);
  EXPECT_EQ(g.node_count(), 36u);
}

// --- Frozen sparse rows ------------------------------------------------------

// Every pair's find_edge / edge round-trip, against the clone. igridlong
// n=64 with 64 long links saturates: each node draws every peer that is not
// a grid neighbour, so every long link is drawn from both ends (u -> t and
// t -> u) and must appear once in both rows -- the family is exactly K_64.
TEST(ImplicitRows, AllPairsRoundTripMatchesMaterialized) {
  const Graph grid = igridlong(64, 64, 5);
  const Graph geo = igeo(96, 10.0, 5);
  EXPECT_EQ(grid.edge_slots(), 64u * 63u / 2u);
  for (const Graph* g : {&grid, &geo}) {
    const char* what = g == &grid ? "igridlong" : "igeo";
    const Graph mat = g->clone();
    expect_rows_match(*g, mat, what);
    expect_lexicographic_ranks(*g, what);
    const auto n = static_cast<NodeId>(g->node_count());
    for (NodeId u = 0; u < n; ++u) {
      for (NodeId v = 0; v < n; ++v) {
        const std::optional<EdgeIdx> e = g->find_edge(u, v);
        ASSERT_EQ(e, mat.find_edge(u, v)) << what << " u=" << u << " v=" << v;
        if (!e) continue;
        const Edge ge = g->edge(*e);
        EXPECT_EQ(std::min(ge.u, ge.v), std::min(u, v)) << what << " e=" << *e;
        EXPECT_EQ(std::max(ge.u, ge.v), std::max(u, v)) << what << " e=" << *e;
        EXPECT_EQ(ge.weight, mat.edge(*e).weight) << what << " e=" << *e;
      }
    }
  }
}

// Frozen rows are stored, not recycled: an incident(v) span and a sorted
// row span of a generated graph stay put, byte-identical, while more other
// rows are queried than the K_n ring (kIncSlots) holds.
TEST(ImplicitRows, SparseIncidentSpansOutliveTheRing) {
  for (const Family fam : {Family::kGridLong, Family::kGeometric}) {
    const Graph g = small_graph(fam, 3);
    ASSERT_EQ(g.backend(), Graph::Backend::kFrozen);
    const std::span<const Incidence> row = g.incident(0);
    const std::vector<Incidence> copy(row.begin(), row.end());
    const std::span<const AugWeight> sorted = g.sorted_incident(0);
    const std::vector<AugWeight> sorted_copy(sorted.begin(), sorted.end());
    ASSERT_GT(g.node_count(), 3 * ImplicitCore::kIncSlots);
    std::size_t queried = 0;
    for (NodeId v = 1; v <= 3 * ImplicitCore::kIncSlots; ++v) {
      queried += g.incident(v).size() + g.sorted_incident(v).size();
    }
    EXPECT_GT(queried, 0u);
    EXPECT_EQ(g.incident(0).data(), row.data());
    EXPECT_EQ(g.sorted_incident(0).data(), sorted.data());
    ASSERT_EQ(row.size(), copy.size());
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(row[i].peer, copy[i].peer) << name_of(fam);
      EXPECT_EQ(row[i].edge, copy[i].edge) << name_of(fam);
    }
    expect_same_augs(sorted, sorted_copy, name_of(fam), 0);
  }
}

// --- XL smokes: never materialise -------------------------------------------

TEST(ImplicitXL, CompleteMillionNodesAnalyticProbes) {
  ImplicitSpec spec;
  spec.n = 1'000'000;
  spec.seed = 42;
  const ImplicitCore core(spec);
  const auto n = static_cast<NodeId>(spec.n);
  EXPECT_EQ(core.edge_slots(),
            EdgeIdx{spec.n} * (spec.n - 1) / 2);  // ~5 * 10^11 ranks
  const int en_bits = 2 * core.id_bits();
  for (const NodeId v : {NodeId{0}, NodeId{1}, NodeId{12345},
                         NodeId{999'999}}) {
    EXPECT_EQ(core.degree(v), spec.n - 1);
    // A one-weight-class window is answerable in O(log n + |out|); every
    // returned aug must name an edge (v, peer) of the right weight that
    // decodes back from its rank.
    const AugWeight lo = make_aug_weight(100, 0, en_bits);
    const AugWeight hi = make_aug_weight(101, 0, en_bits) - 1;
    for (const AugWeight aug : core.sorted_incident_range(v, lo, hi)) {
      EXPECT_GE(aug, lo);
      EXPECT_LE(aug, hi);
      const EdgeNum en = aug_weight_edge_num(aug, en_bits);
      const ExtId self = core.ext_ids()[v];
      const ExtId small = edge_num_small_id(en, core.id_bits());
      const ExtId large = edge_num_large_id(en, core.id_bits());
      ASSERT_TRUE(small == self || large == self);
      const ExtId other = small == self ? large : small;
      const auto it = std::find(core.ext_ids().begin(), core.ext_ids().end(),
                                other);
      ASSERT_NE(it, core.ext_ids().end());
      const auto peer = static_cast<NodeId>(it - core.ext_ids().begin());
      EXPECT_EQ(core.weight_of(v, peer), 100u);
      const Edge ed = core.edge(core.rank_of(v, peer));
      EXPECT_EQ(std::min(ed.u, ed.v), std::min(v, peer));
      EXPECT_EQ(std::max(ed.u, ed.v), std::max(v, peer));
      EXPECT_EQ(make_aug_weight(ed.weight,
                                make_edge_num(core.ext_ids()[ed.u],
                                              core.ext_ids()[ed.v],
                                              core.id_bits()),
                                en_bits),
                aug);
    }
    // Decode round-trips on sampled ranks incident to v.
    const NodeId peer = v == 0 ? n - 1 : v - 1;
    const EdgeIdx e = core.rank_of(v, peer);
    const Edge ed = core.edge(e);
    EXPECT_EQ(std::min(ed.u, ed.v), std::min(v, peer));
    EXPECT_EQ(std::max(ed.u, ed.v), std::max(v, peer));
    EXPECT_EQ(core.find_edge(v, peer), std::optional<EdgeIdx>{e});
  }
  // Distinct external IDs on a sample (full distinctness is by bijection).
  util::Rng rng(7);
  std::vector<ExtId> sample;
  for (int i = 0; i < 1000; ++i) {
    sample.push_back(core.ext_ids()[rng.below(spec.n)]);
  }
  std::sort(sample.begin(), sample.end());
  EXPECT_EQ(std::adjacent_find(sample.begin(), sample.end()), sample.end());
}

TEST(ImplicitXL, GridLongMillionNodesRowProbes) {
  const Graph g = igridlong(1'048'576, 2, 9);  // 1024 x 1024
  EXPECT_EQ(g.node_count(), 1'048'576u);
  EXPECT_GE(g.edge_slots(), EdgeIdx{2} * 1024 * 1023);  // grid edges alone
  util::Rng rng(11);
  for (int i = 0; i < 32; ++i) {
    const auto v = static_cast<NodeId>(rng.below(g.node_count()));
    const std::span<const Incidence> row = g.incident(v);
    ASSERT_GE(row.size(), 2u);   // at least the grid corner degree
    ASSERT_LE(row.size(), 4u + 2 * 2 * 64u);
    std::vector<AugWeight> augs;
    for (const Incidence& inc : row) {
      EXPECT_EQ(g.find_edge(v, inc.peer), std::optional<EdgeIdx>{inc.edge});
      const Edge ed = g.edge(inc.edge);
      EXPECT_TRUE((ed.u == v && ed.v == inc.peer) ||
                  (ed.v == v && ed.u == inc.peer));
      augs.push_back(g.aug_weight(inc.edge));
    }
    // Sorted row is the same edge set in ascending aug order.
    std::sort(augs.begin(), augs.end());
    expect_same_augs(g.sorted_incident(v), augs, "igridlong", v);
  }
}

// --- MarkedForest on web-scale implicit K_n ---------------------------------

// An implicit K_n at web scale must construct a forest without touching
// Theta(m) memory: marks live in per-node entries, O(n + tree edges).
TEST(ImplicitForest, WebScaleCompleteForestIsNodeLocal) {
  const Graph g = make_implicit_graph({1'000'000, 1});
  MarkedForest forest(g);  // per-edge marks would be ~5 TB
  const EdgeIdx e = *g.find_edge(3, 77);
  forest.mark_edge(e, 2);
  EXPECT_TRUE(forest.is_marked(e));
  EXPECT_EQ(forest.mark_epoch(e), 2u);
  EXPECT_EQ(forest.marked_edges(), std::vector<EdgeIdx>{e});
  EXPECT_TRUE(forest.properly_marked());
  forest.clear_edge(e);
  EXPECT_FALSE(forest.is_marked(e));
}

}  // namespace
}  // namespace kkt::graph
