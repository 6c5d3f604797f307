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

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
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
// output is Google Benchmark's, but each finished run's name and counters
// are also captured, and when the KKT_BENCH_OUT environment variable names
// a file the whole session is written there in the unified result schema --
// deterministic counters only, so BENCH_*.json artifacts are byte-identical
// across reruns and diff cleanly across commits. The bench_gate ctest cases
// compare two of them exactly against bench/baselines/ (docs/PERF.md).
// Wall time is not recorded here; the repo benchmark (perfbench/) owns it.

class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      report::RunRecord rec;
      rec.name = run.benchmark_name();
      for (const auto& [key, counter] : run.counters) {
        rec.counters[key] = counter.value;
      }
      records_.push_back(std::move(rec));
    }
    ConsoleReporter::ReportRuns(runs);
  }

  std::vector<report::RunRecord> take_records() {
    return std::move(records_);
  }

 private:
  std::vector<report::RunRecord> records_;
};

inline int bench_main(int argc, char** argv) {
  std::string tool = argc > 0 && argv[0] ? argv[0] : "bench";
  if (const std::size_t slash = tool.find_last_of('/');
      slash != std::string::npos) {
    tool = tool.substr(slash + 1);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  RecordingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  if (const char* out = std::getenv("KKT_BENCH_OUT"); out && *out) {
    report::ResultFile file;
    file.tool = tool;
    file.records = reporter.take_records();
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
