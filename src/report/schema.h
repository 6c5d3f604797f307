// The unified bench-result schema: one versioned JSON shape for every
// BENCH_*.json artifact in the repo (spec: docs/RESULT_SCHEMA.md).
//
// A result file is a producer name plus a flat list of RunRecords; a record
// is a slash-delimited name plus a counter map (string -> double). All the
// observables in this repo -- model-cost counters, fitted exponents, grid
// coordinates -- fit that shape, so the report generator, the perf
// trajectory and the drift check all consume a single parser.
//
//   {
//     "kkt_result_schema": 2,
//     "tool": "bench_build_mst",
//     "records": [
//       {"name": "BM_BuildMst_Kkt_N15/64/iterations:1",
//        "counters": {"messages": 5048}}
//     ]
//   }
//
// Schema v2 adds optional wall-clock observables to a record -- "wall_ns"
// (wall time of one run, nanoseconds) and "iters" (timed runs behind it)
// -- serialized only when nonzero. They are deliberately NOT counters:
// counters stay deterministic model costs and are compared exactly
// (`kkt_report perf`), while wall time is machine noise and is never
// compared against anything. v1 artifacts parse unchanged; a v1 record
// simply carries no wall data.
//
// Determinism: write_results() is byte-deterministic -- counters serialize
// in sorted key order, integral values print without a fraction -- so two
// runs at the same seed produce byte-identical artifacts (held by
// tests/report_test.cc) and artifacts diff line-by-line across commits.
// Wall fields appear only when a producer opts in (`kkt_report run
// --measure`), so the default artifacts keep that property.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace kkt::report {

inline constexpr int kResultSchemaVersion = 2;
// Oldest version parse_results() still reads. v1 files are plain v2 files
// without wall data, so the read shim costs nothing.
inline constexpr int kMinResultSchemaVersion = 1;

struct RunRecord {
  // Slash-delimited identifier, e.g. "headtohead/build_mst/kkt/n=256" or a
  // `kkt_report bench` record name. Renderers key off documented prefixes.
  std::string name;
  // Observables. std::map: serialization order is sorted and therefore
  // deterministic regardless of how the producer filled the map.
  std::map<std::string, double> counters;
  // Wall-clock observables (v2, optional): per-run wall time and the run
  // count behind it. Zero means "not measured" and is not
  // serialized, keeping counter-only artifacts byte-stable across versions.
  std::uint64_t wall_ns = 0;
  std::uint64_t iters = 0;
  // Peak resident set size (v2, optional; util::peak_rss_kb). Same contract
  // as wall_ns: zero = not measured, not serialized, machine-dependent --
  // a budget-gate observable, never an equality-checked counter. Producers
  // opt in (kkt_report run --measure, kkt_lab --rss); canonical artifacts
  // leave it off.
  std::uint64_t peak_rss_kb = 0;

  double counter_or(std::string_view key, double dflt) const noexcept {
    const auto it = counters.find(std::string(key));
    return it == counters.end() ? dflt : it->second;
  }

  friend bool operator==(const RunRecord&, const RunRecord&) = default;
};

struct ResultFile {
  int schema_version = kResultSchemaVersion;
  std::string tool;  // producer binary/subsystem name
  std::vector<RunRecord> records;

  // First record whose name matches exactly; nullptr when absent.
  const RunRecord* find(std::string_view name) const noexcept;

  friend bool operator==(const ResultFile&, const ResultFile&) = default;
};

// Serializes in the unified shape (always schema_version as written in the
// struct; callers leave the default). Byte-deterministic.
std::string serialize_results(const ResultFile& f);
void write_results(std::ostream& os, const ResultFile& f);
bool write_results_file(const std::string& path, const ResultFile& f);

// Parses a unified artifact. Returns nullopt with a message in *error (if
// non-null) on malformed input, a missing or unsupported schema version,
// or any other JSON shape (e.g. raw Google Benchmark output).
std::optional<ResultFile> parse_results(std::string_view text,
                                        std::string* error = nullptr);
std::optional<ResultFile> read_results(std::istream& is,
                                       std::string* error = nullptr);
std::optional<ResultFile> read_results_file(const std::string& path,
                                            std::string* error = nullptr);

}  // namespace kkt::report
