// The paper's counter experiments (EXPERIMENTS.md, E1-E14), run by
// `kkt_report bench <suite>`.
//
// A suite is a fixed list of scenarios at fixed seeds. Each scenario runs
// once and becomes one report::RunRecord whose counters are model costs
// (messages, bits, rounds, broadcast-and-echoes, success rates), so a
// suite's artifact is byte-identical on every run. The committed snapshots
// in tests/baselines/ gate all eight suites exactly (docs/PERF.md).
//
// Record names keep the spelling the suites had as Google Benchmark
// binaries -- `BM_<Experiment>[/<arg>]/iterations:1` -- and the artifact's
// `tool` is `bench_<suite>`, so those snapshots stay valid unchanged.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "report/schema.h"

namespace kkt::bench {

struct SuiteRun {
  report::ResultFile file;
  // One "<record>: <what>" line per failed correctness check (a build that
  // did not span, a churn op the oracle rejected). Empty on a clean run.
  std::vector<std::string> errors;
};

// The suite names, comma-separated, for usage messages.
std::string suite_names();

// Runs suite `name`; nullopt when there is no such suite.
std::optional<SuiteRun> run_suite(std::string_view name);

}  // namespace kkt::bench
