// Experiment E1 (Theorem 1.1, Lemma 3): MST construction scaling.
//
// KKT Build MST messages should grow ~ n log^2 n / log log n, independent of
// m; the GHS baseline grows with m (on its worst case). E11 (memory) and
// E13 (phase decay) piggyback as counters here.
#include <algorithm>

#include "baseline/ghs.h"
#include "bench_util.h"
#include "core/build_mst.h"

namespace kkt::bench {
namespace {

// E1a: KKT on moderately dense G(n, m ~ n^1.5).
void BM_BuildMst_Kkt_N15(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = std::min(n * (n - 1) / 2,
                          static_cast<std::size_t>(std::pow(n, 1.5)));
  for (auto _ : state) {
    World w = make_gnm_world(n, m, 42);
    const core::BuildStats stats = core::build_mst(*w.net, *w.forest);
    if (!stats.spanning) state.SkipWithError("did not span");
    report(state, w.net->metrics(), n, m);
    state.counters["phases"] = static_cast<double>(stats.phases);
  }
}
BENCHMARK(BM_BuildMst_Kkt_N15)
    ->Arg(64)->Arg(128)->Arg(256)->Arg(512)->Arg(1024)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

// E1b: KKT on complete graphs: message count must stay ~E1a despite m = n^2/2.
void BM_BuildMst_Kkt_Complete(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t m = n * (n - 1) / 2;
  for (auto _ : state) {
    World w = make_gnm_world(n, m, 43);
    const core::BuildStats stats = core::build_mst(*w.net, *w.forest);
    if (!stats.spanning) state.SkipWithError("did not span");
    report(state, w.net->metrics(), n, m);
    state.counters["phases"] = static_cast<double>(stats.phases);
  }
}
BENCHMARK(BM_BuildMst_Kkt_Complete)
    ->Arg(64)->Arg(128)->Arg(256)->Arg(512)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

// E1c: GHS baseline on the same complete graphs (random weights: its cheap
// regime -- see bench_crossover for its worst case).
void BM_BuildMst_Ghs_Complete(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t m = n * (n - 1) / 2;
  for (auto _ : state) {
    World w = make_gnm_world(n, m, 43);
    const auto stats = baseline::ghs_build_mst(*w.net, *w.forest);
    if (!stats.spanning) state.SkipWithError("did not span");
    report(state, w.net->metrics(), n, m);
    state.counters["phases"] = static_cast<double>(stats.phases);
  }
}
BENCHMARK(BM_BuildMst_Ghs_Complete)
    ->Arg(64)->Arg(128)->Arg(256)->Arg(512)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

// E13: phase-by-phase fragment decay (Claim 1 of Lemma 3): the counter
// reports the number of phases needed versus lg n.
void BM_BuildMst_PhaseDecay(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    World w = make_gnm_world(n, 4 * n, 44);
    const core::BuildStats stats = core::build_mst(*w.net, *w.forest);
    report(state, w.net->metrics(), n, 4 * n);
    state.counters["phases"] = static_cast<double>(stats.phases);
    state.counters["phases_per_lg_n"] =
        static_cast<double>(stats.phases) /
        std::log2(static_cast<double>(n));
    // Geometric decay check: fragments remaining after half the phases.
    const std::size_t mid = stats.per_phase.size() / 2;
    state.counters["fragments_at_midpoint"] =
        static_cast<double>(stats.per_phase.empty()
                                ? 0
                                : stats.per_phase[mid].fragments);
  }
}
BENCHMARK(BM_BuildMst_PhaseDecay)
    ->Arg(128)->Arg(256)->Arg(512)->Arg(1024)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

// E11: peak per-node protocol state (bits) during a build -- the
// O(log(n+u)) memory claim of Theorem 1.1.
void BM_BuildMst_NodeMemory(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    World w = make_gnm_world(n, 8 * n, 45);
    core::build_mst(*w.net, *w.forest);
    report(state, w.net->metrics(), n, 8 * n);
  }
}
BENCHMARK(BM_BuildMst_NodeMemory)
    ->Arg(128)->Arg(512)->Arg(1024)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace kkt::bench

KKT_BENCH_MAIN();
