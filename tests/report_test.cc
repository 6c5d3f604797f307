// The report pipeline: JSON model, unified result schema (writer/parser),
// power-law fits, markdown rendering and the generated-block splice. The
// contracts under test are the ones docs/RESULT_SCHEMA.md promises: strict
// parsing (malformed input -> nullopt, never a partial file), value
// round-trips, and byte-deterministic output.
#include <gtest/gtest.h>

#include <cmath>
#include <ostream>
#include <string>
#include <vector>

#include "report/fit.h"
#include "report/json.h"
#include "report/render.h"
#include "report/schema.h"

namespace kkt::report {
namespace {

// ---------------------------------------------------------------------------
// JSON model
// ---------------------------------------------------------------------------

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(json_parse("null")->is_null());
  EXPECT_EQ(json_parse("true")->as_bool(), true);
  EXPECT_EQ(json_parse("false")->as_bool(), false);
  EXPECT_EQ(json_parse("42")->as_number(), 42.0);
  EXPECT_EQ(json_parse("-3.5e2")->as_number(), -350.0);
  EXPECT_EQ(json_parse("\"hi\\nthere\"")->as_string(), "hi\nthere");
  EXPECT_EQ(json_parse("\"\\u0041\"")->as_string(), "A");
}

TEST(Json, ParsesNested) {
  const auto v = json_parse(R"({"a": [1, {"b": "c"}], "d": {}})");
  ASSERT_TRUE(v.has_value());
  const JsonValue* a = v->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  EXPECT_EQ(a->as_array()[0].as_number(), 1.0);
  EXPECT_EQ(*a->as_array()[1].find("b"), JsonValue("c"));
  EXPECT_TRUE(v->find("d")->as_object().empty());
  EXPECT_EQ(v->find("missing"), nullptr);
}

TEST(Json, SerializeParseRoundTrip) {
  JsonValue obj{JsonValue::Object{}};
  obj.set("int", 123.0);
  obj.set("frac", 0.125);
  obj.set("neg", -7.0);
  obj.set("text", "line\nbreak \"quoted\"");
  obj.set("arr", JsonValue(JsonValue::Array{JsonValue(true), JsonValue()}));
  for (const int indent : {-1, 0, 2, 4}) {
    const std::string text = json_serialize(obj, indent);
    const auto back = json_parse(text);
    ASSERT_TRUE(back.has_value()) << text;
    EXPECT_EQ(*back, obj) << text;
  }
}

TEST(Json, IntegralNumbersPrintWithoutFraction) {
  EXPECT_EQ(json_serialize(JsonValue(123.0), -1), "123");
  EXPECT_EQ(json_serialize(JsonValue(-4.0), -1), "-4");
  EXPECT_EQ(json_serialize(JsonValue(0.5), -1), "0.5");
  // Round-trips the shortest representation.
  const double third = 1.0 / 3.0;
  EXPECT_EQ(json_parse(json_serialize(JsonValue(third), -1))->as_number(),
            third);
}

TEST(Json, MalformedInputsRejectedWithOffset) {
  const char* cases[] = {
      "",           "{",          "[1, 2",       "\"unterminated",
      "{\"a\" 1}",  "{\"a\":}",   "[1,, 2]",     "nul",
      "tru",        "01",         "-01.5",       "[01]",
      "01x",        "1.2.3",      "--1",
      "\"\\q\"",    "\"\\u12g4\"", "{\"a\":1} extra",
      "[1] [2]",    "\x01",       "nan",         "inf",
  };
  for (const char* text : cases) {
    std::string err;
    EXPECT_FALSE(json_parse(text, &err).has_value()) << text;
    EXPECT_NE(err.find("offset "), std::string::npos) << text;
  }
}

TEST(Json, DepthLimitEnforced) {
  std::string deep(JsonValue::kMaxDepth + 8, '[');
  deep += std::string(JsonValue::kMaxDepth + 8, ']');
  std::string err;
  EXPECT_FALSE(json_parse(deep, &err).has_value());
  EXPECT_NE(err.find("nesting"), std::string::npos);
  // One below the limit parses fine.
  std::string ok(JsonValue::kMaxDepth - 1, '[');
  ok += "1";
  ok += std::string(JsonValue::kMaxDepth - 1, ']');
  EXPECT_TRUE(json_parse(ok).has_value());
}

// ---------------------------------------------------------------------------
// Unified schema
// ---------------------------------------------------------------------------

ResultFile sample_file() {
  ResultFile f;
  f.tool = "unit_test";
  f.records.push_back(
      {"headtohead/build_mst/kkt/n=64",
       {{"n", 64.0}, {"m", 2016.0}, {"messages", 4891.5}, {"seeds", 2.0}}});
  f.records.push_back({"headtohead-fit/build_mst/kkt",
                       {{"exponent", 1.433}, {"r2", 0.999}, {"points", 4.0}}});
  return f;
}

TEST(Schema, WriteParseRoundTrip) {
  const ResultFile f = sample_file();
  const std::string text = serialize_results(f);
  const auto back = parse_results(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, f);
}

TEST(Schema, SerializationIsByteDeterministic) {
  // Counter insertion order must not matter (std::map sorts), and repeated
  // serialization must be identical.
  ResultFile a, b;
  a.tool = b.tool = "t";
  RunRecord ra, rb;
  ra.name = rb.name = "r";
  ra.counters["x"] = 1.0;
  ra.counters["aa"] = 2.0;
  rb.counters["aa"] = 2.0;
  rb.counters["x"] = 1.0;
  a.records.push_back(ra);
  b.records.push_back(rb);
  EXPECT_EQ(serialize_results(a), serialize_results(b));
  EXPECT_EQ(serialize_results(a), serialize_results(a));
}

TEST(Schema, V1ArtifactsParseViaReadShim) {
  // Pre-perf-campaign artifacts carry version 1 and no wall data; they must
  // keep parsing (kMinResultSchemaVersion) with the wall columns zeroed.
  const char* v1 = R"({"kkt_result_schema": 1, "tool": "t",
      "records": [{"name": "x", "counters": {"n": 64}}]})";
  const auto file = parse_results(v1);
  ASSERT_TRUE(file.has_value());
  EXPECT_EQ(file->schema_version, 1);
  ASSERT_EQ(file->records.size(), 1u);
  EXPECT_EQ(file->records[0].wall_ns, 0u);
  EXPECT_EQ(file->records[0].iters, 0u);
  // Round trip: the struct's version is what serializes, and the body of a
  // wall-free record is identical across v1 and v2.
  const auto back = parse_results(serialize_results(*file));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, *file);
}

TEST(Schema, WallFieldsRoundTripAndStayOptIn) {
  ResultFile f = sample_file();
  // wall_ns == 0 means "not measured" and must not serialize, so default
  // counter-only artifacts stay byte-stable across the v1 -> v2 bump.
  const std::string without = serialize_results(f);
  EXPECT_EQ(without.find("wall_ns"), std::string::npos);
  EXPECT_EQ(without.find("iters"), std::string::npos);

  f.records[0].wall_ns = 1234567;
  f.records[0].iters = 3;
  const std::string with = serialize_results(f);
  EXPECT_NE(with.find("\"wall_ns\": 1234567"), std::string::npos);
  const auto back = parse_results(with);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, f);
  // The record that carried no wall data stays bare after the round trip.
  EXPECT_EQ(back->records[1].wall_ns, 0u);
  EXPECT_EQ(back->records[1].iters, 0u);
}

TEST(Schema, RejectsMalformedDocuments) {
  const char* cases[] = {
      // not JSON at all
      "not json",
      // wrong top-level type
      "[1, 2]",
      // unknown schema version
      R"({"kkt_result_schema": 99, "tool": "t", "records": []})",
      // non-numeric version
      R"({"kkt_result_schema": "1", "tool": "t", "records": []})",
      // missing tool
      R"({"kkt_result_schema": 1, "records": []})",
      // records not an array
      R"({"kkt_result_schema": 1, "tool": "t", "records": {}})",
      // record without a name
      R"({"kkt_result_schema": 1, "tool": "t",
          "records": [{"counters": {}}]})",
      // record without counters
      R"({"kkt_result_schema": 1, "tool": "t", "records": [{"name": "x"}]})",
      // non-numeric counter
      R"({"kkt_result_schema": 1, "tool": "t",
          "records": [{"name": "x", "counters": {"n": "64"}}]})",
      // non-numeric wall column (v2)
      R"({"kkt_result_schema": 2, "tool": "t",
          "records": [{"name": "x", "counters": {}, "wall_ns": "5"}]})",
      // not a unified artifact: raw Google Benchmark JSON
      R"({"context": {}, "benchmarks": [{"name": "BM_x", "n": 64}]})",
  };
  for (const char* text : cases) {
    std::string err;
    EXPECT_FALSE(parse_results(text, &err).has_value()) << text;
    EXPECT_FALSE(err.empty()) << text;
  }
}

// ---------------------------------------------------------------------------
// Power-law fits
// ---------------------------------------------------------------------------

TEST(Fit, RecoversExactPowerLaw) {
  const std::vector<double> x = {64, 128, 256, 512};
  std::vector<double> y;
  for (const double xi : x) y.push_back(3.0 * xi * xi);  // 3 n^2
  const auto fit = fit_power_law(x, y);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->exponent, 2.0, 1e-9);
  EXPECT_NEAR(fit->coeff, 3.0, 1e-6);
  EXPECT_NEAR(fit->r2, 1.0, 1e-12);
  EXPECT_EQ(fit->points, 4u);
}

TEST(Fit, RejectsDegenerateInputs) {
  EXPECT_FALSE(fit_power_law(std::vector<double>{64},
                             std::vector<double>{10}));
  EXPECT_FALSE(fit_power_law(std::vector<double>{64, 128},
                             std::vector<double>{10}));
  EXPECT_FALSE(fit_power_law(std::vector<double>{64, 64},
                             std::vector<double>{10, 20}));
  EXPECT_FALSE(fit_power_law(std::vector<double>{0, 128},
                             std::vector<double>{10, 20}));
  EXPECT_FALSE(fit_power_law(std::vector<double>{64, 128},
                             std::vector<double>{10, 0}));
}

TEST(Fit, ConstantSeriesFitsZeroSlope) {
  const auto fit = fit_power_law(std::vector<double>{64, 128, 256},
                                 std::vector<double>{7, 7, 7});
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->exponent, 0.0, 1e-12);
  EXPECT_EQ(fit->r2, 1.0);
}

// ---------------------------------------------------------------------------
// Rendering and the generated block
// ---------------------------------------------------------------------------

TEST(Render, HeadToHeadTablesContainSeriesAndFits) {
  const std::string md = render_headtohead_markdown(sample_file());
  EXPECT_NE(md.find(kHeadToHeadArtifact), std::string::npos);
  EXPECT_NE(md.find("`build_mst`"), std::string::npos);
  EXPECT_NE(md.find("| 64 | 2016 | 4891.5 |"), std::string::npos);
  EXPECT_NE(md.find("| kkt | 1.433 | 0.999 | 4 |"), std::string::npos);
}

TEST(Render, ByteStableAcrossCallsAndRoundTrips) {
  const ResultFile f = sample_file();
  const std::string once = render_headtohead_markdown(f);
  const std::string twice = render_headtohead_markdown(f);
  EXPECT_EQ(once, twice);
  // Rendering the parsed copy of the serialized file is also identical:
  // the docs regenerated from a committed artifact cannot drift.
  const auto back = parse_results(serialize_results(f));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(render_headtohead_markdown(*back), once);
  EXPECT_EQ(render_experiments_block(*back), render_experiments_block(f));
}

// E18's crossover line: a fitted k* only inside the measured k grid and
// only from fits with r² >= 0.9; otherwise the measured costs at the
// largest k. Each row pins one branch.
struct CrossoverCase {
  const char* name;
  double e_rep, c_rep, r2_rep;    // batch-repair fit
  double e_reb, c_reb, r2_reb;    // rebuild fit
  double rep_at_max, reb_at_max;  // messages at the largest k (128)
  const char* expect;
};

void PrintTo(const CrossoverCase& c, std::ostream* os) { *os << c.name; }

class RenderCrossover : public ::testing::TestWithParam<CrossoverCase> {};

TEST_P(RenderCrossover, PrintsOnlyWhatTheGridSupports) {
  const CrossoverCase& c = GetParam();
  ResultFile f;
  f.tool = "unit_test";
  for (const char* algo : {"kkt", "rebuild"}) {
    const bool rep = std::string(algo) == "kkt";
    for (double k = 1; k <= 128; k *= 2) {
      f.records.push_back(
          {"headtohead/repair_batch/" + std::string(algo) +
               "/n=" + std::to_string(static_cast<int>(k)),
           {{"n", k},
            {"messages", k < 128 ? 1000.0 : rep ? c.rep_at_max
                                                 : c.reb_at_max}}});
    }
    f.records.push_back(
        {"headtohead-fit/repair_batch/" + std::string(algo),
         {{"exponent", rep ? c.e_rep : c.e_reb},
          {"coeff", rep ? c.c_rep : c.c_reb},
          {"r2", rep ? c.r2_rep : c.r2_reb},
          {"points", 8.0}}});
  }
  const std::string block = render_experiments_block(f);
  EXPECT_NE(block.find(c.expect), std::string::npos) << block;
  EXPECT_EQ(block.find("k* ≈") != std::string::npos,
            std::string(c.expect).find("k* ≈") != std::string::npos)
      << block;
}

INSTANTIATE_TEST_SUITE_P(
    Branches, RenderCrossover,
    ::testing::Values(
        CrossoverCase{"inside_grid", 1.0, 100.0, 0.99, 0.0, 1600.0, 0.95,
                      12800.0, 1600.0, "the curves cross at k* ≈ 16.000"},
        // The committed grid: weak fits whose k* (~288) lies past k = 128.
        CrossoverCase{"weak_fits", 0.178, 27556.579, 0.839, -0.043,
                      96246.904, 0.623, 71313.667, 76233.667,
                      "no crossover observed for k ≤ 128 (at k = 128: "
                      "repair 71314 messages, rebuild 76234)"},
        CrossoverCase{"rebuild_cheaper", 1.0, 100.0, 0.5, 0.0, 1600.0, 0.5,
                      12800.0, 1600.0,
                      "rebuild is cheaper at k = 128, but the fits place no "
                      "crossover inside the measured grid"}),
    [](const ::testing::TestParamInfo<CrossoverCase>& info) {
      return std::string(info.param.name);
    });

TEST(Render, SpliceReplacesOnlyTheGeneratedRegion) {
  std::string doc = "intro\n";
  doc += kGeneratedBeginMarker;
  doc += "\nOLD CONTENT\n";
  doc += kGeneratedEndMarker;
  doc += "\noutro\n";
  const auto spliced = splice_generated_block(doc, "NEW\n");
  ASSERT_TRUE(spliced.has_value());
  EXPECT_NE(spliced->find("intro"), std::string::npos);
  EXPECT_NE(spliced->find("outro"), std::string::npos);
  EXPECT_NE(spliced->find("NEW"), std::string::npos);
  EXPECT_EQ(spliced->find("OLD CONTENT"), std::string::npos);
  // Idempotent: splicing the same block again changes nothing.
  EXPECT_EQ(*splice_generated_block(*spliced, "NEW\n"), *spliced);
}

TEST(Render, SpliceRequiresMarkers) {
  EXPECT_FALSE(splice_generated_block("no markers here", "X"));
  // End before begin is malformed.
  std::string reversed;
  reversed += kGeneratedEndMarker;
  reversed += "\n";
  reversed += kGeneratedBeginMarker;
  EXPECT_FALSE(splice_generated_block(reversed, "X"));
}

}  // namespace
}  // namespace kkt::report
