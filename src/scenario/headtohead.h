// Head-to-head grids: KKT vs the Omega(m) baselines on the same graphs.
//
// run_headtohead() executes a task x algorithm x instance-size grid and
// reduces it to the numbers the paper's claims are judged by:
//
//   build_mst      core::build_mst vs baseline::ghs_build_mst vs
//                  baseline::flood_build_st (the folk-theorem comparator)
//   find_min       core::find_min vs baseline::naive_find_min_cut on the
//                  same severed tree edge
//   repair_delete  a deterministic stream of tree-edge deletions through
//                  core::MaintenanceSession (the churn dispatch path) vs
//                  the naive probe-everything repair
//
// Per cell, `seeds` runs execute on a SweepExecutor grid (parallel across
// seeds; results land in seed slots, so every aggregate is bit-identical
// at any thread count) and the per-seed model costs are averaged. Every
// build cell (build_mst, build_mst_xl) checks each finished world with
// build_cell_correct; a wrong world is a HeadToHeadResult error. Per
// (task, algorithm) series, the message counts are reduced to a fitted
// power-law exponent (report::fit_power_law over the size grid) -- "o(m)
// messages" becomes an asserted number: on complete graphs the flooding
// exponent sits at ~2 (Theta(m) = Theta(n^2)) while KKT BuildMST's stays
// near 1 (n polylog n). tests/headtohead_test.cc and the CI report stage
// hold that gap.
//
// Determinism: all inputs are seeds and counts; all outputs are model-cost
// counters and arithmetic over them. Two runs of the same config produce
// byte-identical artifacts via to_result_file().
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "report/schema.h"
#include "scenario/scenario.h"

namespace kkt::scenario {

struct HeadToHeadConfig {
  // Instance sizes (node counts), the x axis of every exponent fit.
  // Entries below 2 are dropped (no tree edge to sever); at least two
  // distinct valid sizes are needed for the fits to exist.
  std::vector<std::size_t> sizes = {64, 128, 256, 512};
  // Complete graphs (m = n(n-1)/2) make the o(m) gap starkest; with
  // complete_graphs = false the grid runs connected G(n, density * n).
  bool complete_graphs = true;
  std::size_t density = 8;
  NetKind net = NetKind::kSync;
  // Seed sweep per cell: seeds first_seed, first_seed + 1, ...
  std::uint64_t first_seed = 1;
  int seeds = 3;
  // Tree-edge deletions per seed in the repair_delete task.
  int ops = 8;
  // SweepExecutor threads for the per-cell seed sweeps (<= 0: hardware).
  int threads = 1;
  // Web-scale extension of the BuildMST comparison: each entry runs as task
  // "build_mst_xl" on the igridlong grid+long-links family
  // (GraphSpec::igridlong with xl_long_links <= 64, generated into the
  // frozen CSR layout -- O(n + m), so n = 10^6 fits a laptop) with the kkt
  // and ghs competitors only. Flooding is Theta(m) by construction and the
  // materialised families would defeat the point. One run per cell at
  // first_seed: at these sizes a seed sweep multiplies hours of wall time
  // without moving the fit. Empty (the default) disables the task, so the
  // canonical artifact is byte-identical to the pre-XL grid.
  std::vector<std::size_t> xl_sizes = {};
  std::size_t xl_long_links = 2;
  // GHS joins the XL series only at sizes <= xl_ghs_cap (0 = uncapped).
  // Its message bill is fine (~n^1.14 on this family) but its simulated
  // wall time grows ~n^2.4, so the top XL points would cost hours for a
  // fit the smaller sizes already determine; kkt runs every size.
  std::size_t xl_ghs_cap = 65536;
  // Stamp the schema-v2 observables -- wall_ns (per run) and peak_rss_kb --
  // onto every cell record. Off by default: they are machine noise, and
  // canonical artifacts must stay byte-deterministic. Model-cost counters
  // are unaffected either way (measurement brackets the run; it never
  // feeds it).
  bool measure = false;
};

// One (task, algorithm, n) grid cell: per-seed means of the model costs.
struct HeadToHeadCell {
  std::string task;
  std::string algo;
  std::size_t n = 0;
  std::size_t m = 0;
  int seeds = 0;
  // Mean model costs over the seed sweep. For repair_delete these are
  // per-operation means (the per-seed total divided by the op count).
  double messages = 0.0;
  double bits = 0.0;
  double rounds = 0.0;
  double bcast_echoes = 0.0;
  // Schema-v2 observables, stamped only under config.measure (zero
  // otherwise -- and then omitted from the serialized record): mean wall
  // time of one run in this cell (building the world and running the
  // body; the correctness check is not timed), and the process peak RSS
  // observed when the last run's body returned (an upper bound on the
  // cell's footprint; see util/rusage.h).
  std::uint64_t wall_ns = 0;
  std::uint64_t peak_rss_kb = 0;
};

// Fitted power law of a (task, algorithm) message series over n.
struct HeadToHeadFit {
  std::string task;
  std::string algo;
  double exponent = 0.0;
  double coeff = 0.0;
  double r2 = 0.0;
  std::size_t points = 0;
};

struct HeadToHeadResult {
  HeadToHeadConfig config;
  std::vector<HeadToHeadCell> cells;  // grid order: task, algo, n ascending
  std::vector<HeadToHeadFit> fits;    // one per (task, algo) series
  // One line per build cell with a world that failed its check; a result
  // with errors must not be published.
  std::vector<std::string> errors;

  const HeadToHeadFit* fit(std::string_view task,
                           std::string_view algo) const noexcept;

  // The unified artifact (docs/RESULT_SCHEMA.md): one record per cell
  // ("headtohead/<task>/<algo>/n=<n>"), one per fit
  // ("headtohead-fit/<task>/<algo>"), plus a "headtohead-meta" provenance
  // record. Deterministic record order.
  report::ResultFile to_result_file() const;
};

// Runs the whole grid. Pure compute; no I/O. The grid always includes the
// repair-vs-recompute crossover (E18): at the largest grid size, sweep
// concurrent-deletion batch size k over the geometric grid
// {1, 2, 4, ..., n/4} and compare batch repair
// (MaintenanceSession::apply_batch -> DynamicForest::delete_batch) against
// deleting the same edges and rebuilding the MST from scratch. Cells land
// as "repair_batch/<algo>/n=<k>" -- the generic renderer's n column holds
// the batch size -- and the fitted crossover
// k* = (C_rebuild / C_repair)^(1 / (e_repair - e_rebuild)) is rendered into
// EXPERIMENTS.md ("where does impromptu repair stop beating
// recompute-from-scratch?").
HeadToHeadResult run_headtohead(const HeadToHeadConfig& cfg = {});

// What a build cell's finished world must satisfy: an MST build (kkt,
// ghs) marks exactly the oracle forest graph::kruskal_msf; a spanning-tree
// build (flood) marks a spanning forest. kNone (not a build cell) always
// passes.
enum class BuildCheck { kNone, kMsf, kSpanning };
bool build_cell_correct(const World& w, BuildCheck check);

}  // namespace kkt::scenario
