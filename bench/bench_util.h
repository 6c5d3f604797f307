// Shared helpers for the experiment harnesses (bench/).
//
// These benchmarks measure *model costs* -- messages, bits, rounds,
// broadcast-and-echoes -- which are deterministic given the seed, not wall
// time. Each experiment reports its observables as benchmark counters; the
// rows printed by these binaries are the reproduction's "tables" (see
// EXPERIMENTS.md for the mapping to the paper's claims).
//
// World construction lives in the kkt_scenario library; this header only
// adds the benchmark-counter plumbing. The net-seed salt of the legacy
// bench helpers is scenario::kNetSeedSalt, so fixed-seed counter values are
// unchanged by the rebase.
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/forest.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/mst_oracle.h"
#include "report/schema.h"
#include "scenario/scenario.h"
#include "util/rng.h"

namespace kkt::bench {

using scenario::NetKind;
using scenario::World;

// Connected G(n, m) scenario with the bench seed discipline (graph from
// `seed`, network from seed ^ kNetSeedSalt).
inline scenario::Scenario gnm_scenario(std::size_t n, std::size_t m,
                                       std::uint64_t seed,
                                       NetKind kind = NetKind::kSync) {
  scenario::Scenario sc;
  sc.graph = scenario::GraphSpec::gnm(n, m);
  sc.net.kind = kind;
  sc.seed = seed;
  return sc;
}

inline World make_world(std::unique_ptr<graph::Graph> g, std::uint64_t seed,
                        NetKind kind = NetKind::kSync) {
  scenario::NetSpec net;
  net.kind = kind;
  return scenario::make_world(std::move(g), net, seed);
}

inline World make_gnm_world(std::size_t n, std::size_t m, std::uint64_t seed,
                            NetKind kind = NetKind::kSync) {
  return scenario::make_world(gnm_scenario(n, m, seed, kind));
}

// Marks the oracle MSF (used to set up repair scenarios).
inline void mark_msf(World& w) { w.mark_msf(); }

// Publishes the standard observables of a finished run.
inline void report(benchmark::State& state, const sim::Metrics& m,
                   std::size_t n, std::size_t edges) {
  state.counters["n"] = static_cast<double>(n);
  state.counters["m"] = static_cast<double>(edges);
  state.counters["messages"] = static_cast<double>(m.messages);
  state.counters["msgs_per_n"] =
      static_cast<double>(m.messages) / static_cast<double>(n);
  state.counters["msgs_per_m"] =
      edges ? static_cast<double>(m.messages) / static_cast<double>(edges)
            : 0.0;
  state.counters["rounds"] = static_cast<double>(m.rounds);
  state.counters["bcast_echoes"] = static_cast<double>(m.broadcast_echoes);
  state.counters["bits"] = static_cast<double>(m.message_bits);
  state.counters["peak_state_bits"] =
      static_cast<double>(m.peak_node_state_bits);
  // Per-tag budget split: which protocol spends the envelopes and the bits.
  for (std::size_t t = 0; t < m.per_tag.size(); ++t) {
    if (m.per_tag[t] == 0) continue;
    const char* name = sim::tag_name(static_cast<sim::Tag>(t));
    state.counters[std::string("msgs.") + name] =
        static_cast<double>(m.per_tag[t]);
    state.counters[std::string("bits.") + name] =
        static_cast<double>(m.per_tag_bits[t]);
  }
}

// ---------------------------------------------------------------------------
// Unified artifact plumbing (docs/RESULT_SCHEMA.md)
// ---------------------------------------------------------------------------
//
// Every bench binary runs through KKT_BENCH_MAIN() below: the console
// output is unchanged, but each finished run's name and counters are also
// captured, and when the KKT_BENCH_OUT environment variable names a file
// the whole session is written there in the unified result schema --
// deterministic counters only, no wall-clock noise, so BENCH_*.json
// artifacts share one version header and diff cleanly across commits.
// (Google Benchmark's own --benchmark_out still works; artifacts written
// that way are readable via the schema parser's one-release legacy shim.)
//
// Wall-clock capture is opt-in: KKT_BENCH_WALL=k (k >= 1; any other value
// means k = 5) runs the whole suite k+1 times -- one discarded warm-up
// pass, then k timed passes -- and stamps each record with the median
// per-iteration wall time (schema v2 wall_ns/iters). Counters are
// deterministic, so the extra passes change nothing else; the median over
// warm passes is what makes wall_ns usable as a gate input on a noisy box.

class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  explicit RecordingReporter(bool quiet = false) : quiet_(quiet) {}

  bool ReportContext(const Context& context) override {
    return quiet_ ? true : ConsoleReporter::ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      report::RunRecord rec;
      rec.name = run.benchmark_name();
      for (const auto& [key, counter] : run.counters) {
        rec.counters[key] = counter.value;
      }
      if (run.iterations > 0) {
        rec.iters = static_cast<std::uint64_t>(run.iterations);
        rec.wall_ns = static_cast<std::uint64_t>(
            run.real_accumulated_time * 1e9 /
            static_cast<double>(run.iterations));
      }
      records_.push_back(std::move(rec));
    }
    if (!quiet_) ConsoleReporter::ReportRuns(runs);
  }

  std::vector<report::RunRecord> take_records() {
    return std::move(records_);
  }

 private:
  std::vector<report::RunRecord> records_;
  bool quiet_ = false;
};

// Lower median of the wall_ns column across timed passes, folded into the
// final pass's records (counters are identical across passes by the
// determinism contract, so only the wall column varies).
inline std::vector<report::RunRecord> fold_median_wall(
    std::vector<std::vector<report::RunRecord>> passes) {
  std::vector<report::RunRecord> out = std::move(passes.back());
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::vector<std::uint64_t> samples;
    samples.reserve(passes.size());
    for (const auto& pass : passes) {
      if (i < pass.size() && pass[i].name == out[i].name) {
        samples.push_back(pass[i].wall_ns);
      }
    }
    if (!samples.empty()) {
      std::sort(samples.begin(), samples.end());
      out[i].wall_ns = samples[(samples.size() - 1) / 2];
    }
  }
  return out;
}

inline int bench_main(int argc, char** argv) {
  std::string tool = argc > 0 && argv[0] ? argv[0] : "bench";
  if (const std::size_t slash = tool.find_last_of('/');
      slash != std::string::npos) {
    tool = tool.substr(slash + 1);
  }
  // --benchmark_format selects the *display* reporter; our recording
  // reporter is console-flavored, so a non-console request (the legacy
  // JSON-on-stdout recipe) falls back to stock BENCHMARK_MAIN behavior --
  // honoring the flag but recording nothing.
  bool custom_display = true;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i] ? argv[i] : "";
    if (arg.rfind("--benchmark_format", 0) == 0 &&
        arg != "--benchmark_format=console") {
      custom_display = false;
    }
  }
  int wall_passes = 0;
  if (const char* wall = std::getenv("KKT_BENCH_WALL");
      custom_display && wall && *wall) {
    wall_passes = std::atoi(wall);
    if (wall_passes < 1) wall_passes = 5;
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  std::vector<report::RunRecord> records;
  if (custom_display && wall_passes > 0) {
    {
      RecordingReporter warmup(/*quiet=*/true);  // discarded warm-up pass
      benchmark::RunSpecifiedBenchmarks(&warmup);
    }
    std::vector<std::vector<report::RunRecord>> passes;
    passes.reserve(wall_passes);
    for (int i = 0; i < wall_passes; ++i) {
      RecordingReporter pass(/*quiet=*/i + 1 < wall_passes);
      benchmark::RunSpecifiedBenchmarks(&pass);
      passes.push_back(pass.take_records());
    }
    records = fold_median_wall(std::move(passes));
  } else if (custom_display) {
    RecordingReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);
    records = reporter.take_records();
    // Default mode keeps artifacts byte-deterministic: no wall column.
    for (report::RunRecord& r : records) {
      r.wall_ns = 0;
      r.iters = 0;
    }
  } else {
    if (std::getenv("KKT_BENCH_OUT") != nullptr) {
      std::fprintf(stderr,
                   "warning: KKT_BENCH_OUT is ignored when "
                   "--benchmark_format is not console\n");
    }
    benchmark::RunSpecifiedBenchmarks();
  }
  benchmark::Shutdown();
  if (const char* out = std::getenv("KKT_BENCH_OUT");
      custom_display && out && *out) {
    report::ResultFile file;
    file.tool = tool;
    file.records = std::move(records);
    if (!report::write_results_file(out, file)) {
      std::fprintf(stderr, "error: cannot write %s\n", out);
      return 1;
    }
    std::fprintf(stderr, "wrote %s: %zu records (kkt_result_schema v%d)\n",
                 out, file.records.size(), report::kResultSchemaVersion);
  }
  return 0;
}

}  // namespace kkt::bench

// Drop-in replacement for BENCHMARK_MAIN() that adds the unified-artifact
// flush; every bench in bench/ uses this.
#define KKT_BENCH_MAIN()                            \
  int main(int argc, char** argv) {                 \
    return kkt::bench::bench_main(argc, argv);      \
  }                                                 \
  static_assert(true, "require a trailing semicolon")
