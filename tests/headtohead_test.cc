// The head-to-head grid: the o(m) claims as asserted numbers.
//
// Holds (a) the headline acceptance gate -- KKT BuildMST beats the
// flooding baseline on message count at n >= 256 and on the fitted
// exponent over the grid; (b) the determinism contract -- the unified
// artifact and the rendered docs are byte-stable across runs and across
// SweepExecutor thread counts at a fixed seed (the golden-file property
// the CI report stage relies on).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/build_mst.h"
#include "report/render.h"
#include "report/schema.h"
#include "scenario/headtohead.h"

namespace kkt::scenario {
namespace {

HeadToHeadConfig smoke_config() {
  HeadToHeadConfig cfg;
  cfg.sizes = {64, 256};
  cfg.seeds = 2;
  cfg.ops = 4;
  cfg.first_seed = 1;
  return cfg;
}

const HeadToHeadCell* cell(const HeadToHeadResult& r, std::string_view task,
                           std::string_view algo, std::size_t n) {
  for (const HeadToHeadCell& c : r.cells) {
    if (c.task == task && c.algo == algo && c.n == n) return &c;
  }
  return nullptr;
}

TEST(HeadToHead, GridCoversEverySeriesWithPositiveCosts) {
  const HeadToHeadResult r = run_headtohead(smoke_config());
  EXPECT_TRUE(r.errors.empty()) << r.errors.front();
  const struct {
    const char* task;
    const char* algo;
  } series[] = {
      {"build_mst", "kkt"},     {"build_mst", "ghs"},
      {"build_mst", "flood"},   {"find_min", "kkt"},
      {"find_min", "naive"},    {"repair_delete", "kkt"},
      {"repair_delete", "naive"},
  };
  for (const auto& s : series) {
    for (const std::size_t n : {std::size_t{64}, std::size_t{256}}) {
      const HeadToHeadCell* c = cell(r, s.task, s.algo, n);
      ASSERT_NE(c, nullptr) << s.task << "/" << s.algo << "/" << n;
      EXPECT_GT(c->messages, 0.0) << s.task << "/" << s.algo << "/" << n;
      EXPECT_EQ(c->m, n * (n - 1) / 2) << "complete graph edge count";
      EXPECT_EQ(c->seeds, 2);
    }
    EXPECT_NE(r.fit(s.task, s.algo), nullptr) << s.task << "/" << s.algo;
  }
}

// Theorem 1.1's acceptance gate: fewer messages than flooding at n >= 256
// on the same complete graphs, and a strictly smaller fitted exponent.
TEST(HeadToHead, KktBuildMstBeatsFlooding) {
  const HeadToHeadResult r = run_headtohead(smoke_config());
  const HeadToHeadCell* kkt = cell(r, "build_mst", "kkt", 256);
  const HeadToHeadCell* flood = cell(r, "build_mst", "flood", 256);
  ASSERT_NE(kkt, nullptr);
  ASSERT_NE(flood, nullptr);
  EXPECT_LT(kkt->messages, flood->messages)
      << "KKT BuildMST must beat flooding on message count at n = 256";
  const HeadToHeadFit* kkt_fit = r.fit("build_mst", "kkt");
  const HeadToHeadFit* flood_fit = r.fit("build_mst", "flood");
  ASSERT_NE(kkt_fit, nullptr);
  ASSERT_NE(flood_fit, nullptr);
  EXPECT_LT(kkt_fit->exponent, flood_fit->exponent)
      << "o(m): KKT's message-count exponent must sit strictly below "
         "flooding's Theta(m) = Theta(n^2)";
  // Flooding on complete graphs is Theta(n^2): the fit must say so.
  EXPECT_NEAR(flood_fit->exponent, 2.0, 0.15);
}

// Theorem 1.2's analogue for the repair path: the naive probe-everything
// baseline pays ~m per deletion, KKT stays near-linear.
TEST(HeadToHead, KktRepairBeatsNaiveProbe) {
  const HeadToHeadResult r = run_headtohead(smoke_config());
  const HeadToHeadCell* kkt = cell(r, "repair_delete", "kkt", 256);
  const HeadToHeadCell* naive = cell(r, "repair_delete", "naive", 256);
  ASSERT_NE(kkt, nullptr);
  ASSERT_NE(naive, nullptr);
  EXPECT_LT(kkt->messages, naive->messages);
  EXPECT_LT(r.fit("find_min", "kkt")->exponent,
            r.fit("find_min", "naive")->exponent);
}

// Every build cell is checked: a finished build passes, and the same world
// with one tree edge cleared fails both the oracle-MSF and the spanning
// check, so such a cell becomes a result error.
TEST(HeadToHead, BuildCellCheckRejectsAClearedTreeEdge) {
  Scenario sc;
  sc.graph = GraphSpec::complete(32);
  World w = make_world(sc);
  core::build_mst(w.network(), w.trees());
  EXPECT_TRUE(build_cell_correct(w, BuildCheck::kMsf));
  EXPECT_TRUE(build_cell_correct(w, BuildCheck::kSpanning));
  const std::vector<graph::EdgeIdx> tree = w.forest->marked_edges();
  ASSERT_FALSE(tree.empty());
  w.forest->clear_edge(tree[tree.size() / 2]);
  EXPECT_FALSE(build_cell_correct(w, BuildCheck::kMsf));
  EXPECT_FALSE(build_cell_correct(w, BuildCheck::kSpanning));
  EXPECT_TRUE(build_cell_correct(w, BuildCheck::kNone));
}

// The golden-file property: at a fixed seed the artifact and the rendered
// docs are byte-stable -- across repeated runs and across thread counts.
TEST(HeadToHead, ArtifactAndDocsAreByteStable) {
  HeadToHeadConfig cfg = smoke_config();
  const std::string once =
      report::serialize_results(run_headtohead(cfg).to_result_file());
  const std::string twice =
      report::serialize_results(run_headtohead(cfg).to_result_file());
  EXPECT_EQ(once, twice) << "same config, same bytes";

  cfg.threads = 2;
  const std::string threaded =
      report::serialize_results(run_headtohead(cfg).to_result_file());
  EXPECT_EQ(once, threaded)
      << "seed-slot sweeps: thread count must not change the artifact";

  // Render -> serialize -> parse -> render is the identity on the docs.
  const auto parsed = report::parse_results(once);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(report::render_headtohead_markdown(*parsed),
            report::render_headtohead_markdown(
                run_headtohead(smoke_config()).to_result_file()));
}

}  // namespace
}  // namespace kkt::scenario
