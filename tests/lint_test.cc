// kkt_lint: every rule exercised on in-memory fixtures (positive,
// suppressed, and clean variants), plus the self-scan case asserting the
// shipped tree is violation-free. The fixtures below *contain* rule
// violations on purpose; tests/*.cc are outside the lint scan policy
// (lint/repo_scan.h), so they never trip the gate themselves.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "lint/lint.h"
#include "lint/repo_scan.h"
#include "report/json.h"

namespace kkt::lint {
namespace {

FileClass determinism_class() {
  FileClass c;
  c.determinism = true;
  return c;
}

FileClass header_class() {
  FileClass c;
  c.header = true;
  return c;
}

FileClass hot_path_class() {
  FileClass c;
  c.determinism = true;
  c.hot_path = true;
  return c;
}

std::vector<Finding> scan(std::string_view text, const FileClass& cls,
                          ScanStats* stats = nullptr) {
  return scan_file("fixture.cc", text, cls, {}, stats);
}

int count_rule(const std::vector<Finding>& fs, RuleId rule) {
  int n = 0;
  for (const Finding& f : fs) n += f.rule == rule ? 1 : 0;
  return n;
}

TEST(LintRules, NamesRoundTrip) {
  for (int r = 0; r < kRuleCount; ++r) {
    const auto rule = static_cast<RuleId>(r);
    const auto back = rule_from_name(rule_name(rule));
    ASSERT_TRUE(back.has_value()) << rule_name(rule);
    EXPECT_EQ(*back, rule);
  }
  EXPECT_FALSE(rule_from_name("nope").has_value());
}

// --- rand-source -----------------------------------------------------------

TEST(RandSource, FlagsEntropyAndClockCalls) {
  const auto fs = scan(
      "int f() { return rand(); }\n"
      "std::random_device rd;\n"
      "auto t0 = std::chrono::steady_clock::now();\n",
      determinism_class());
  EXPECT_EQ(count_rule(fs, RuleId::kRandSource), 3);
  EXPECT_EQ(fs[0].line, 1);
  EXPECT_EQ(fs[1].line, 2);
  EXPECT_EQ(fs[2].line, 3);
}

TEST(RandSource, IgnoresCommentsStringsAndSubwords) {
  const auto fs = scan(
      "// never call rand() here\n"
      "const char* kDoc = \"time() and std::rand()\";\n"
      "std::uint64_t delivery_time(int now);\n"
      "int strand(int operand);\n",
      determinism_class());
  EXPECT_TRUE(fs.empty());
}

TEST(RandSource, RngUtilItselfIsExempt) {
  FileClass cls = determinism_class();
  cls.rng_util = true;
  const auto fs = scan("int f() { return rand(); }\n", cls);
  EXPECT_TRUE(fs.empty());
}

TEST(RandSource, SuppressedWithJustificationTrailing) {
  ScanStats stats;
  const auto fs = scan(
      "int f() { return rand(); }  "
      "// kkt-lint: allow(rand-source): fixture exercising suppression\n",
      determinism_class(), &stats);
  EXPECT_TRUE(fs.empty());
  EXPECT_EQ(stats.suppressions_total, 1);
  EXPECT_EQ(stats.suppressions_used, 1);
}

TEST(RandSource, SuppressedFromStandaloneLineAbove) {
  ScanStats stats;
  const auto fs = scan(
      "// kkt-lint: allow(rand-source): fixture exercising suppression\n"
      "int f() { return rand(); }\n",
      determinism_class(), &stats);
  EXPECT_TRUE(fs.empty());
  EXPECT_EQ(stats.suppressions_used, 1);
}

// --- suppression hygiene ---------------------------------------------------

TEST(Suppressions, MissingJustificationIsItsOwnFinding) {
  const auto fs = scan(
      "int f() { return rand(); }  // kkt-lint: allow(rand-source)\n",
      determinism_class());
  // The malformed comment does not suppress, so both findings surface.
  EXPECT_EQ(count_rule(fs, RuleId::kBadSuppression), 1);
  EXPECT_EQ(count_rule(fs, RuleId::kRandSource), 1);
}

TEST(Suppressions, UnknownRuleIsItsOwnFinding) {
  const auto fs = scan(
      "int x = 0;  // kkt-lint: allow(no-such-rule): whatever\n",
      determinism_class());
  EXPECT_EQ(count_rule(fs, RuleId::kBadSuppression), 1);
}

TEST(Suppressions, UnusedSuppressionIsItsOwnFinding) {
  ScanStats stats;
  const auto fs = scan(
      "int x = 0;  // kkt-lint: allow(rand-source): nothing here needs it\n",
      determinism_class(), &stats);
  EXPECT_EQ(count_rule(fs, RuleId::kUnusedSuppression), 1);
  EXPECT_EQ(stats.suppressions_total, 1);
  EXPECT_EQ(stats.suppressions_used, 0);
}

// --- unordered-iter --------------------------------------------------------

TEST(UnorderedIter, FlagsRangeForOverUnorderedMember) {
  const auto fs = scan(
      "std::unordered_map<int, int> counts_;\n"
      "void dump() { for (const auto& [k, v] : counts_) use(k, v); }\n",
      determinism_class());
  EXPECT_EQ(count_rule(fs, RuleId::kUnorderedIter), 1);
  EXPECT_EQ(fs[0].line, 2);
}

TEST(UnorderedIter, FlagsExplicitBeginWalk) {
  const auto fs = scan(
      "std::unordered_set<int> seen_;\n"
      "auto it = seen_.begin();\n",
      determinism_class());
  EXPECT_EQ(count_rule(fs, RuleId::kUnorderedIter), 1);
}

TEST(UnorderedIter, LookupOnlyUseIsClean) {
  const auto fs = scan(
      "std::unordered_set<int> seen_;\n"
      "bool has(int x) { return seen_.find(x) != seen_.end(); }\n"
      "bool add(int x) { return seen_.insert(x).second; }\n",
      determinism_class());
  // .end() alone is the find-idiom, not a walk; only .begin variants trip.
  EXPECT_TRUE(fs.empty()) << findings_to_text(fs, 1, {});
}

TEST(UnorderedIter, VectorIterationIsClean) {
  const auto fs = scan(
      "std::vector<int> order_;\n"
      "int sum() { int s = 0; for (int v : order_) s += v; return s; }\n",
      determinism_class());
  EXPECT_TRUE(fs.empty());
}

TEST(UnorderedIter, TracksNamesDeclaredInPairedHeader) {
  const auto names = collect_unordered_names(
      "class C {\n"
      "  std::unordered_map<std::uint64_t, Bounds> edge_bounds_;\n"
      "  std::vector<int> ok_;\n"
      "};\n");
  ASSERT_EQ(names.size(), 1u);
  EXPECT_EQ(names[0], "edge_bounds_");
  const auto fs = scan_file(
      "fixture.cc", "void f() { for (auto& e : edge_bounds_) use(e); }\n",
      determinism_class(), names, nullptr);
  EXPECT_EQ(count_rule(fs, RuleId::kUnorderedIter), 1);
}

// --- ptr-key-ordered -------------------------------------------------------

TEST(PtrKeyOrdered, FlagsPointerKeys) {
  const auto fs = scan(
      "std::map<const Node*, int> owner_of;\n"
      "std::set<Session*> live;\n",
      determinism_class());
  EXPECT_EQ(count_rule(fs, RuleId::kPtrKeyOrdered), 2);
}

TEST(PtrKeyOrdered, PointerValuesAndValueKeysAreClean) {
  const auto fs = scan(
      "std::map<int, Node*> by_id;\n"
      "std::map<std::string, std::string> kv;\n"
      "std::set<std::uint64_t> keys;\n",
      determinism_class());
  EXPECT_TRUE(fs.empty()) << findings_to_text(fs, 1, {});
}

// --- hotpath-alloc ---------------------------------------------------------

TEST(HotpathAlloc, FlagsAllocationOnWirePath) {
  const auto fs = scan(
      "void f() { auto* p = new int(3); }\n"
      "void g() { void* q = malloc(8); }\n"
      "std::string label;\n"
      "auto s = std::to_string(42);\n",
      hot_path_class());
  EXPECT_EQ(count_rule(fs, RuleId::kHotpathAlloc), 4);
}

TEST(HotpathAlloc, StringViewAndSubwordsAreClean) {
  const auto fs = scan(
      "std::string_view name;\n"
      "int news_count = 0;\n"
      "int renewed = 1;\n",
      hot_path_class());
  EXPECT_TRUE(fs.empty()) << findings_to_text(fs, 1, {});
}

TEST(HotpathAlloc, SameTextOffHotPathIsClean) {
  const auto fs = scan("std::string label;\n", determinism_class());
  EXPECT_TRUE(fs.empty());
}

// --- shared-static ---------------------------------------------------------

TEST(SharedStatic, FlagsMutableStaticsAndThreadLocal) {
  const auto fs = scan(
      "static int counter;\n"
      "static std::vector<int> cache = {};\n"
      "thread_local int scratch = 0;\n"
      "static thread_local int lane_id;\n",  // one finding, not two
      hot_path_class());
  EXPECT_EQ(count_rule(fs, RuleId::kSharedStatic), 4);
}

TEST(SharedStatic, ConstantsAndFunctionsAreClean) {
  const auto fs = scan(
      "static constexpr std::uint64_t kMax = 1u << 26;\n"
      "constexpr static int kTableSize = 8;\n"
      "static const char* kName = \"net\";\n"
      "static bool event_later(const Event& a, const Event& b) noexcept {\n"
      "  return a.at > b.at;\n"
      "}\n"
      "static_assert(sizeof(int) == 4);\n",
      hot_path_class());
  EXPECT_TRUE(fs.empty()) << findings_to_text(fs, 1, {});
}

TEST(SharedStatic, SuppressibleWithJustification) {
  ScanStats stats;
  const auto fs = scan(
      "// kkt-lint: allow(shared-static): per-thread trace buffer\n"
      "static thread_local Buffer* t_buffer;\n",
      hot_path_class(), &stats);
  EXPECT_TRUE(fs.empty()) << findings_to_text(fs, 1, {});
  EXPECT_EQ(stats.suppressions_used, 1);
}

TEST(SharedStatic, SameTextOffHotPathIsClean) {
  const auto fs = scan("static int counter;\nthread_local int x;\n",
                       determinism_class());
  EXPECT_TRUE(fs.empty());
}

// --- header hygiene --------------------------------------------------------

TEST(HeaderHygiene, MissingPragmaOnce) {
  const auto fs = scan("int x;\n", header_class());
  EXPECT_EQ(count_rule(fs, RuleId::kPragmaOnce), 1);
  EXPECT_EQ(fs[0].line, 1);
}

TEST(HeaderHygiene, PragmaOncePresentIsClean) {
  const auto fs = scan("#pragma once\nint x;\n", header_class());
  EXPECT_TRUE(fs.empty());
}

TEST(HeaderHygiene, PragmaOnceSuppressibleAnywhereInFile) {
  ScanStats stats;
  const auto fs = scan(
      "int x;\n"
      "// kkt-lint: allow(pragma-once): fixture for file-scope suppression\n",
      header_class(), &stats);
  EXPECT_TRUE(fs.empty());
  EXPECT_EQ(stats.suppressions_used, 1);
}

TEST(HeaderHygiene, UsingNamespaceInHeader) {
  const auto fs =
      scan("#pragma once\nusing namespace std;\n", header_class());
  EXPECT_EQ(count_rule(fs, RuleId::kUsingNamespaceHeader), 1);
}

TEST(HeaderHygiene, UsingNamespaceInSourceFileIsAllowed) {
  const auto fs = scan("using namespace std;\n", determinism_class());
  EXPECT_TRUE(fs.empty());
}

// --- test registration -----------------------------------------------------

TEST(TestRegistration, FlagsUnregisteredAndCommentedOut) {
  const std::vector<std::string> files = {"tests/foo_test.cc",
                                          "tests/bar_test.cc",
                                          "tests/baz_test.cc"};
  const auto fs = check_test_registration(
      files,
      "kkt_add_test(foo_test)\n"
      "# kkt_add_test(bar_test)\n",
      "tests/CMakeLists.txt");
  ASSERT_EQ(fs.size(), 2u);
  EXPECT_EQ(count_rule(fs, RuleId::kTestUnregistered), 2);
  EXPECT_EQ(fs[0].excerpt, "bar_test");
  EXPECT_EQ(fs[1].excerpt, "baz_test");
}

// --- output ---------------------------------------------------------------

TEST(LintOutput, JsonIsDeterministicAndVersioned) {
  const auto findings = scan("int f() { return rand(); }\n"
                             "std::random_device rd;\n",
                             determinism_class());
  ScanStats stats;
  stats.suppressions_total = 2;
  stats.suppressions_used = 1;
  const std::string a =
      report::json_serialize(findings_to_json(findings, 7, stats));
  const std::string b =
      report::json_serialize(findings_to_json(findings, 7, stats));
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"kkt_lint_schema\": 1"), std::string::npos);
  EXPECT_NE(a.find("\"files_scanned\": 7"), std::string::npos);
  EXPECT_NE(a.find("\"rule\": \"rand-source\""), std::string::npos);
}

TEST(LintOutput, TextRenderingNamesEveryFinding) {
  const auto findings = scan("std::random_device rd;\n",
                             determinism_class());
  const std::string text = findings_to_text(findings, 1, {});
  EXPECT_NE(text.find("fixture.cc:1: [rand-source]"), std::string::npos);
}

// --- repo policy -----------------------------------------------------------

TEST(RepoPolicy, ClassifiesByLayout) {
  const auto net = classify_path("src/sim/network.cc");
  ASSERT_TRUE(net.has_value());
  EXPECT_TRUE(net->determinism);
  EXPECT_TRUE(net->hot_path);
  EXPECT_FALSE(net->header);

  // The tree index makes forest.h part of every protocol tree walk.
  const auto forest = classify_path("src/graph/forest.h");
  ASSERT_TRUE(forest.has_value());
  EXPECT_TRUE(forest->hot_path);
  EXPECT_TRUE(forest->header);
  const auto forest_cc = classify_path("src/graph/forest.cc");
  ASSERT_TRUE(forest_cc.has_value());
  EXPECT_FALSE(forest_cc->hot_path);

  const auto rng = classify_path("src/util/rng.h");
  ASSERT_TRUE(rng.has_value());
  EXPECT_TRUE(rng->rng_util);
  EXPECT_TRUE(rng->header);

  const auto util_h = classify_path("tests/test_util.h");
  ASSERT_TRUE(util_h.has_value());
  EXPECT_TRUE(util_h->header);
  EXPECT_FALSE(util_h->determinism);

  // Test sources host deliberately violating fixtures; never content-scan.
  EXPECT_FALSE(classify_path("tests/lint_test.cc").has_value());
  EXPECT_FALSE(classify_path("README.md").has_value());
}

TEST(RepoPolicy, SeededViolationTripsFullClassScan) {
  FileClass cls;
  cls.determinism = true;
  cls.hot_path = true;
  const auto fs = scan_file("scratch/seeded_violation.cc",
                            "int bad_seed() { return std::rand(); }\n", cls,
                            {}, nullptr);
  EXPECT_FALSE(fs.empty());
}

// The acceptance gate: the shipped tree is violation-free, and every
// suppression in it is load-bearing (unused ones are findings themselves).
TEST(RepoPolicy, SelfScanOfShippedTreeIsClean) {
  const RepoReport report = scan_repo(KKT_SOURCE_ROOT);
  EXPECT_GT(report.files_scanned, 80);
  EXPECT_TRUE(report.findings.empty()) << findings_to_text(
      report.findings, report.files_scanned, report.stats);
}

}  // namespace
}  // namespace kkt::lint
