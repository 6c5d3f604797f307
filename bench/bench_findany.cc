// Experiment E9 (Lemmas 4 and 5): FindAny.
//
//  * per-attempt isolation success >= 1/16 across cut sizes from 1 to ~m;
//  * expected O(1) broadcast-and-echoes per call, independent of n;
//  * the log n / log log n saving over FindMin.
#include <algorithm>

#include "bench_util.h"
#include "core/find_any.h"
#include "core/find_min.h"
#include "proto/tree_ops.h"

namespace kkt::bench {
namespace {

struct CutWorld {
  World w;
  graph::NodeId root = 0;
};

CutWorld make_cut_world(std::size_t n, std::size_t m, std::uint64_t seed) {
  CutWorld cw{make_gnm_world(n, m, seed)};
  mark_msf(cw.w);
  const auto tree = cw.w.forest->marked_edges();
  const graph::EdgeIdx split = tree[tree.size() / 3];
  cw.w.forest->clear_edge(split);
  cw.root = cw.w.g->edge(split).u;
  return cw;
}

// E9a: FindAny-C per-attempt success rate across densities (cut sizes).
void BM_FindAnyC_SuccessRate(benchmark::State& state) {
  const std::size_t n = 128;
  const auto m = static_cast<std::size_t>(state.range(0));
  constexpr int kOps = 200;
  for (auto _ : state) {
    int successes = 0;
    for (int i = 0; i < kOps; ++i) {
      CutWorld cw = make_cut_world(n, m, 200 + i);
      proto::TreeOps ops(*cw.w.net, graph::TreeView(*cw.w.forest));
      successes += core::find_any_c(ops, cw.root).found;
    }
    state.counters["m"] = static_cast<double>(m);
    state.counters["success_rate"] =
        static_cast<double>(successes) / kOps;
    state.counters["paper_lower_bound"] = 1.0 / 16.0;
  }
}
BENCHMARK(BM_FindAnyC_SuccessRate)
    ->Arg(127)->Arg(512)->Arg(2048)->Arg(8128)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

// E9b: broadcast-and-echoes per FindAny vs n (expected O(1)).
void BM_FindAny_BroadcastEchoes(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr int kOps = 25;
  for (auto _ : state) {
    std::uint64_t bes_any = 0, bes_min = 0;
    for (int i = 0; i < kOps; ++i) {
      CutWorld cw = make_cut_world(n, 8 * n, 230 + i);
      proto::TreeOps ops(*cw.w.net, graph::TreeView(*cw.w.forest));
      const auto b0 = cw.w.net->metrics().broadcast_echoes;
      core::find_any(ops, cw.root);
      const auto b1 = cw.w.net->metrics().broadcast_echoes;
      core::find_min(ops, cw.root);
      bes_any += b1 - b0;
      bes_min += cw.w.net->metrics().broadcast_echoes - b1;
    }
    state.counters["n"] = static_cast<double>(n);
    state.counters["findany_bes_per_op"] =
        static_cast<double>(bes_any) / kOps;
    state.counters["findmin_bes_per_op"] =
        static_cast<double>(bes_min) / kOps;
    state.counters["findmin_over_findany"] =
        static_cast<double>(bes_min) / static_cast<double>(bes_any);
  }
}
BENCHMARK(BM_FindAny_BroadcastEchoes)
    ->Arg(64)->Arg(256)->Arg(1024)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

// E9c: attempts until success across cut sizes (Lemma 4's guarantee is
// per-attempt; expected attempts <= 16, typically ~2).
void BM_FindAny_AttemptsUntilSuccess(benchmark::State& state) {
  const std::size_t n = 128;
  const auto m = static_cast<std::size_t>(state.range(0));
  constexpr int kOps = 100;
  for (auto _ : state) {
    std::uint64_t attempts = 0;
    int found = 0;
    for (int i = 0; i < kOps; ++i) {
      CutWorld cw = make_cut_world(n, m, 260 + i);
      proto::TreeOps ops(*cw.w.net, graph::TreeView(*cw.w.forest));
      const auto res = core::find_any(ops, cw.root);
      attempts += res.stats.attempts;
      found += res.found;
    }
    state.counters["attempts_per_success"] =
        static_cast<double>(attempts) / std::max(found, 1);
    state.counters["found"] = found;
  }
}
BENCHMARK(BM_FindAny_AttemptsUntilSuccess)
    ->Arg(127)->Arg(1024)->Arg(8128)
    ->Iterations(1)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace kkt::bench

KKT_BENCH_MAIN();
