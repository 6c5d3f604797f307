// The churn engine's entry points: run one dynamic workload against a
// maintained forest, or sweep it across seeds on a thread pool.
//
// run_churn() is the trace-driven analogue of scenario::run_scenario(): it
// builds the world a Scenario describes (premarking the oracle MSF so the
// session starts from a correct tree), generates the update trace from the
// scenario's workload spec -- or replays a recorded one -- and applies it
// op-by-op through a core::MaintenanceSession, returning the per-op log and
// aggregated cost percentiles.
//
// run_churn_sweep() maps run_churn over seeds first_seed, first_seed+1, ...
// on a scenario::SweepExecutor. Per-seed results land in seed order and all
// aggregation happens over that ordered sequence, so every number in
// ChurnSweepResult is bit-identical regardless of thread count.
//
// Preconditions: sc.graph must describe a connected topology (the session
// starts from the premarked oracle MSF); run_churn resolves it to the
// mutable adjacency backend (scenario::use_mutable_backend). A non-null
// `replay` trace must have been generated for a world of the same node
// count -- ops that no longer resolve are tolerated (applied == false, zero
// cost), per-op records always line up 1:1 with the trace. Thread-safety:
// both entry points are safe to call concurrently; each run owns its
// world. The per-op distributions use nearest-rank percentiles over the
// seed-ordered sample sequence (workload/stats.h), so they inherit the
// bit-identical guarantee.
#pragma once

#include <cstdint>
#include <vector>

#include "core/session.h"
#include "scenario/scenario.h"
#include "workload/generators.h"
#include "workload/stats.h"
#include "workload/trace.h"

namespace kkt::workload {

struct ChurnOptions {
  core::ForestKind kind = core::ForestKind::kMst;
  // Compare against the centralized oracle after every op.
  bool check_oracle = true;
  // Worker threads for run_churn_sweep (<= 0: hardware concurrency).
  int threads = 1;
};

struct ChurnResult {
  UpdateTrace trace;                   // the trace actually applied
  std::vector<core::OpRecord> records; // one per op, in order
  sim::Metrics total;                  // whole-run metric bill
  std::size_t oracle_failures = 0;
  // Per-op cost distributions.
  CostStats messages, bits, rounds;
};

// One churn run. When `replay` is non-null it is applied as-is; otherwise
// the trace is generated from sc.workload (default spec if unset) with seed
// mix_seeds(sc.seed, kTraceSeedSalt).
ChurnResult run_churn(const scenario::Scenario& sc,
                      const ChurnOptions& options = {},
                      const UpdateTrace* replay = nullptr);

struct ChurnSweepResult {
  std::vector<ChurnResult> runs;  // per seed, in seed order
  sim::Metrics total;
  std::size_t ops = 0;
  std::size_t oracle_failures = 0;
  // Per-op cost distributions pooled across every run, in seed order.
  CostStats messages, bits, rounds;
};

ChurnSweepResult run_churn_sweep(scenario::Scenario sc,
                                 std::uint64_t first_seed, int count,
                                 const ChurnOptions& options = {});

}  // namespace kkt::workload
