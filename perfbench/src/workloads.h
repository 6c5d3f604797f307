// The benchmark's three named workloads and the closed loop that runs them.
//
// A run of a workload visits a fixed list of worlds derived from the run's
// seed, one world at a time (one client, closed loop): set the world up,
// run the timed task, check the outputs outside the timed span. One visit
// of every world is a cycle; another cycle starts while one more is expected
// to fit the pass's time budget (there is always one). Model-cost counters
// come from the first cycle and must repeat exactly on every later one;
// each world keeps its fastest visit's times.
//
//   dense_build  connected gnm n=4096 m=262144, sync: core::build_mst
//   grid_build   igridlong n=16384 (2 long links), default backend, sync:
//                core::build_mst
//   churn_async  gnm n=2048 m=32768, random-delay async, oracle MSF
//                premarked: a uniform update trace through
//                MaintenanceSession::apply, one op at a time
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/repair.h"
#include "core/session.h"
#include "harness.h"
#include "scenario/scenario.h"

namespace kkt::perfbench {

struct WorkloadDef {
  std::string name;
  scenario::GraphSpec graph;
  scenario::NetSpec net;
  bool churn = false;     // churn task (else one core::build_mst per world)
  int worlds = 1;         // worlds per cycle
  int ops = 0;            // churn: update ops per world
  std::string describe() const;  // every parameter, one line
};

// The named workload, or nullopt for an unknown name.
std::optional<WorkloadDef> find_workload(const std::string& name);
std::vector<std::string> workload_names();

// Per-phase message counters kept; the last absorbs any later phase (the
// builds here take at most 7 phases).
inline constexpr int kMaxPhases = 8;
inline constexpr int kActions =
    static_cast<int>(core::RepairAction::kActionCount);

// What one pass measured. Times in seconds unless the name says otherwise.
struct PassResult {
  int cycles = 0;
  // Per world, the fastest of its visits: noise on a shared host only ever
  // adds time. Scaled to the reference host speed (HostSpeed); the *_raw_s
  // vectors hold the same minima as measured.
  std::vector<double> setup_s, generate_s, premark_s, task_s;
  std::vector<double> setup_raw_s, task_raw_s;
  // Churn: every op of every world with its fastest apply wall (ms), and
  // the op's kind and repair action.
  std::vector<double> op_ms;
  std::vector<std::pair<core::OpKind, core::RepairAction>> op_class;
  // Per visit.
  std::vector<double> audit_s, oracle_s, trace_gen_s;
  // Model-cost counters of the first cycle's tasks, summed over worlds.
  std::uint64_t messages = 0, rounds = 0, bcast_echoes = 0;
  std::uint64_t phases = 0;
  std::array<std::uint64_t, kMaxPhases> phase_msgs{};
  std::array<std::uint64_t, kActions> actions{};
  // Checked task units (builds, or applied ops) and the ones that failed.
  std::uint64_t attempted = 0, failed = 0;
  // A later cycle's counters differed from the first cycle's.
  bool counters_drifted = false;
  // Scaled set-up plus task time of the first cycle: the base of the traced
  // pass's overhead.
  double first_cycle_s = 0.0;
};

// Runs cycles of the workload while another is expected to fit in
// `budget_s` (at least one). When `finished` is non-null it receives the
// world the last visit left behind, for the layer probes.
PassResult run_pass(const WorkloadDef& def, std::uint64_t seed,
                    double budget_s, Tracer& tracer, HostSpeed& speed,
                    scenario::World* finished);

}  // namespace kkt::perfbench
