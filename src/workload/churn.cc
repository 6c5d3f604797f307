#include "workload/churn.h"

#include <utility>

#include "scenario/sweep.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace kkt::workload {
namespace {

void accumulate_costs(const std::vector<core::OpRecord>& records,
                      std::vector<std::uint64_t>& msgs,
                      std::vector<std::uint64_t>& bits,
                      std::vector<std::uint64_t>& rounds) {
  for (const core::OpRecord& rec : records) {
    msgs.push_back(rec.cost.messages);
    bits.push_back(rec.cost.message_bits);
    rounds.push_back(rec.cost.rounds);
  }
}

}  // namespace

ChurnResult run_churn(const scenario::Scenario& sc,
                      const ChurnOptions& options, const UpdateTrace* replay) {
  scenario::Scenario run = sc;
  run.premark_msf = true;  // impromptu repair starts from a correct tree
  scenario::use_mutable_backend(run.graph);
  scenario::World w = scenario::make_world(run);

  ChurnResult res;
  if (replay != nullptr) {
    res.trace = *replay;
  } else {
    const WorkloadSpec spec = run.workload.value_or(WorkloadSpec{});
    res.trace = generate_trace(w.graph(), spec,
                               util::mix_seeds(run.seed, kTraceSeedSalt));
  }

  core::SessionOptions session_options;
  session_options.check_oracle = options.check_oracle;
  core::MaintenanceSession session(w.graph(), w.trees(), w.network(),
                                   options.kind, session_options);
  session.apply_all(res.trace.ops);

  res.total = session.total_cost();
  res.oracle_failures = session.oracle_failures();
  res.records = session.take_log();

  std::vector<std::uint64_t> msgs, bits, rounds;
  accumulate_costs(res.records, msgs, bits, rounds);
  res.messages = aggregate(std::move(msgs));
  res.bits = aggregate(std::move(bits));
  res.rounds = aggregate(std::move(rounds));
  return res;
}

ChurnSweepResult run_churn_sweep(scenario::Scenario sc,
                                 std::uint64_t first_seed, int count,
                                 const ChurnOptions& options) {
  const scenario::SweepExecutor executor(options.threads);
  ChurnSweepResult res;
  res.runs = executor.map(count, [&sc, first_seed, &options](int i) {
    scenario::Scenario run = sc;
    run.seed = first_seed + static_cast<std::uint64_t>(i);
    // net_seed re-derives from each sweep seed unless the scenario pins it
    // (make_world's rule); each run owns its world and session.
    return run_churn(run, options);
  });

  // Aggregation in seed order over the slot-ordered results: bit-identical
  // for every thread count.
  std::vector<std::uint64_t> msgs, bits, rounds;
  for (const ChurnResult& r : res.runs) {
    res.total += r.total;
    res.ops += r.records.size();
    res.oracle_failures += r.oracle_failures;
    accumulate_costs(r.records, msgs, bits, rounds);
  }
  res.messages = aggregate(std::move(msgs));
  res.bits = aggregate(std::move(bits));
  res.rounds = aggregate(std::move(rounds));
  return res;
}

}  // namespace kkt::workload
