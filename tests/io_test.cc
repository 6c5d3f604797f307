#include <gtest/gtest.h>

#include <sstream>

#include "graph/generators.h"
#include "graph/io.h"
#include "graph/mst_oracle.h"
#include "util/rng.h"

namespace kkt::graph {
namespace {

TEST(GraphIo, RoundTripPreservesEverything) {
  util::Rng rng(1);
  const Graph g = random_connected_gnm(20, 60, {1u << 16}, rng);
  std::stringstream ss;
  write_graph(ss, g);
  std::string err;
  const auto back = read_graph(ss, rng, &err);
  ASSERT_TRUE(back.has_value()) << err;
  EXPECT_EQ(back->node_count(), g.node_count());
  EXPECT_EQ(back->edge_count(), g.edge_count());
  for (NodeId v = 0; v < g.node_count(); ++v) {
    EXPECT_EQ(back->ext_id(v), g.ext_id(v));
  }
  for (EdgeIdx e : g.alive_edge_indices()) {
    const auto found = back->find_edge(g.edge(e).u, g.edge(e).v);
    ASSERT_TRUE(found.has_value());
    EXPECT_EQ(back->edge(*found).weight, g.edge(e).weight);
    EXPECT_EQ(back->aug_weight(*found), g.aug_weight(e));
  }
  // MSTs agree, which exercises edge numbers and augmented weights.
  EXPECT_EQ(kruskal_msf(*back).size(), kruskal_msf(g).size());
}

TEST(GraphIo, DeadEdgesAreNotSerialized) {
  util::Rng rng(2);
  Graph g(4, rng);
  g.add_edge(0, 1, 5);
  const EdgeIdx dead = g.add_edge(1, 2, 7);
  g.remove_edge(dead);
  std::stringstream ss;
  write_graph(ss, g);
  const auto back = read_graph(ss, rng);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->edge_count(), 1u);
}

TEST(GraphIo, AcceptsMinimalFileWithoutIds) {
  std::stringstream ss("p 3 2\ne 0 1 10\ne 1 2 20\n");
  util::Rng rng(3);
  const auto g = read_graph(ss, rng);
  ASSERT_TRUE(g.has_value());
  EXPECT_EQ(g->node_count(), 3u);
  EXPECT_EQ(g->edge_count(), 2u);
  EXPECT_NE(g->ext_id(0), g->ext_id(1));  // random IDs drawn
}

TEST(GraphIo, CommentsAndBlankLinesIgnored) {
  std::stringstream ss("# hello\n\np 2 1\n# mid\ne 0 1 3\n");
  util::Rng rng(4);
  EXPECT_TRUE(read_graph(ss, rng).has_value());
}

struct BadCase {
  const char* text;
  const char* why;
};

// Prints a case as its `why`, which also names it in ctest. The default
// printer would show the two pointers, so the name would change with every
// build and every run under ASLR.
void PrintTo(const BadCase& c, std::ostream* os) { *os << c.why; }

class GraphIoRejects : public ::testing::TestWithParam<BadCase> {};

TEST_P(GraphIoRejects, MalformedInput) {
  std::stringstream ss(GetParam().text);
  util::Rng rng(5);
  std::string err;
  EXPECT_FALSE(read_graph(ss, rng, &err).has_value()) << GetParam().why;
  EXPECT_FALSE(err.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Cases, GraphIoRejects,
    ::testing::Values(
        BadCase{"e 0 1 3\n", "edge before header"},
        BadCase{"p 2 1\n", "missing edges"},
        BadCase{"p 2 1\ne 0 1 3\ne 0 1 4\n", "count mismatch + duplicate"},
        BadCase{"p 2 2\ne 0 1 3\ne 1 0 4\n", "duplicate edge"},
        BadCase{"p 2 1\ne 0 0 3\n", "self loop"},
        BadCase{"p 2 1\ne 0 5 3\n", "node out of range"},
        BadCase{"p 2 1\ne 0 1 0\n", "zero weight"},
        BadCase{"p 0 0\n", "zero nodes"},
        BadCase{"p 2 1\np 2 1\ne 0 1 1\n", "duplicate header"},
        BadCase{"p 2 1\nq 1 2 3\n", "unknown record"},
        BadCase{"p 2 1\ni 0 0\ne 0 1 1\n", "zero ext id"},
        BadCase{"p 2 1\ni 0 5\ni 1 5\ne 0 1 3\n", "duplicate ext id"},
        BadCase{"p 5000000000 0\n", "node count beyond the ID space"}));

// The ID checks name the offending line; a node may still restate its own
// ID, and the largest accepted header stops at the random_ext_ids bound.
TEST(GraphIo, IdChecksNameTheLine) {
  util::Rng rng(6);
  std::string err;
  std::stringstream dup("p 3 0\ni 0 5\ni 1 6\n# comment\ni 2 5\n");
  EXPECT_FALSE(read_graph(dup, rng, &err).has_value());
  EXPECT_EQ(err, "line 5: duplicate external ID 5");
  std::stringstream big("p 1073741824 0\n");
  EXPECT_FALSE(read_graph(big, rng, &err).has_value());
  EXPECT_EQ(err, "line 1: node count exceeds 1073741823");
  std::stringstream restated("p 2 1\ni 0 5\ni 0 7\ni 1 5\ne 0 1 3\n");
  const auto g = read_graph(restated, rng, &err);
  ASSERT_TRUE(g.has_value()) << err;
  EXPECT_EQ(g->ext_id(0), 7u);
  EXPECT_EQ(g->ext_id(1), 5u);
}

}  // namespace
}  // namespace kkt::graph
