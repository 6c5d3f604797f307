// Fault workloads: typed FaultEvent streams past the paper's single-failure
// repair (ROADMAP item 4) -- batched concurrent deletions, correlated
// regional outages, and partition-and-heal -- as record/replayable artifacts
// riding the update-trace text format (docs/TRACE_FORMAT.md, docs/FAULTS.md).
//
// A FaultEvent is one atomic burst of damage (or repair): a kind plus the
// member UpdateOps the burst consists of. Single ordinary updates are kOp
// events, so a FaultTrace is a strict superset of an UpdateTrace -- every
// plain trace file parses as an all-kOp fault trace. Generators evolve a
// private model copy of the starting graph exactly like generate_trace, so
// every member op is valid at its position in the stream, and heal events
// restore precisely the edges (with their original weights) the matching
// damage event removed.
//
// Determinism: generate_faults is a pure function of (graph, spec, seed);
// fault_trace_digest is the pinned drift fingerprint (golden values in
// tests/workload_test.cc); apply_fault draws randomness only from the
// session's seeded network. Thread-safety: values are plain data; apply
// mutates the session's borrowed world and follows its threading rules.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/session.h"
#include "graph/graph.h"
#include "workload/trace.h"

namespace kkt::workload {

// What one event does to the world. The damage kinds carry delete members
// only; kHeal carries the matching inserts; kOp wraps one ordinary update.
enum class FaultKind {
  kOp,            // one ordinary update (insert/delete/reweigh)
  kBatchDelete,   // k concurrent edge deletions, repaired as one batch
  kRegional,      // correlated outage: every edge incident to a node ball
  kPartitionCut,  // every edge crossing a balanced separator
  kHeal,          // reconnect: re-insert a prior event's edges
};

inline constexpr int kFaultKindCount = 5;

// Kind name for trace files/CLIs ("op", "batch", "regional", "cut", "heal").
const char* fault_kind_name(FaultKind k) noexcept;
std::optional<FaultKind> fault_kind_from_name(std::string_view name) noexcept;

struct FaultEvent {
  FaultKind kind = FaultKind::kOp;
  std::vector<core::UpdateOp> members;

  static FaultEvent op(const core::UpdateOp& o) {
    return {FaultKind::kOp, {o}};
  }

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

struct FaultTrace {
  std::string name = "faults";
  // Seed the schedule was generated from (provenance; not used on replay).
  std::uint64_t seed = 0;
  std::vector<FaultEvent> events;

  std::size_t total_ops() const noexcept {
    std::size_t n = 0;
    for (const FaultEvent& e : events) n += e.members.size();
    return n;
  }
};

// FNV-1a over the event stream (kind, member count, then each member op).
// Same construction as trace_digest, so an all-kOp fault trace and the
// equivalent flat UpdateTrace hash differently only through the per-event
// framing -- both are stable across platforms.
std::uint64_t fault_trace_digest(const FaultTrace& t) noexcept;

// Text round-trip (codec in workload/trace.cc), extending the update-trace
// format with `F` records:
//   F <kind> <k>    -- fault event of <kind> with exactly <k> member op
//                      lines following; bare op lines are kOp events
// Guarantees mirror trace.h: read(write(t)) == t for every valid trace;
// malformed input parses to nullopt with a "line N:" diagnostic.
void write_fault_trace(std::ostream& os, const FaultTrace& t);
bool write_fault_trace_file(const std::string& path, const FaultTrace& t);
std::optional<FaultTrace> read_fault_trace(std::istream& is,
                                           std::string* error = nullptr);
std::optional<FaultTrace> read_fault_trace_file(const std::string& path,
                                                std::string* error = nullptr);

// --- generators -------------------------------------------------------------

enum class FaultModel { kBatch, kRegional, kPartition };

inline constexpr int kFaultModelCount = 3;

const char* fault_model_name(FaultModel m) noexcept;
std::optional<FaultModel> fault_model_from_name(std::string_view name) noexcept;

struct FaultSpec {
  FaultModel model = FaultModel::kBatch;
  // Number of damage events (heal and churn events ride on top).
  int events = 4;
  // kBatch: concurrent deletions per event.
  int batch_k = 4;
  // kRegional: ball size as a fraction of n (>= 1 node). The ball is grown
  // by BFS over the current model, so on geometric/grid families it is a
  // genuinely *regional* (metric-ball) outage.
  double region_fraction = 0.125;
  // kPartition: ordinary churn ops run on each side between cut and heal.
  int churn_ops = 4;
  // Weight range for churn inserts/reweighs.
  graph::Weight max_weight = 64;
  // Every damage event is followed by the kHeal event restoring its edges.
};

// Conventional fault-seed derivation from a scenario seed:
// util::mix_seeds(scenario_seed, kFaultSeedSalt).
inline constexpr std::uint64_t kFaultSeedSalt = 0xfa17;

FaultTrace generate_faults(const graph::Graph& start, const FaultSpec& spec,
                           std::uint64_t seed);

// --- application ------------------------------------------------------------

// What one applied event did and what it cost (the fault analogue of
// core::OpRecord; aggregates the members of a batch).
struct FaultRecord {
  FaultKind kind = FaultKind::kOp;
  std::size_t requested = 0;  // member ops handed in
  std::size_t applied = 0;    // members that resolved against the graph
  // Damage kinds: the batch-repair outcome (core/repair.h).
  std::size_t tree_edges_removed = 0;
  std::size_t replacements = 0;
  std::size_t phases = 0;
  // Forest components before/after (partition detection: a cut that splits
  // the network shows up as components_after > components_before, and the
  // matching heal merges them back).
  std::size_t components_before = 0;
  std::size_t components_after = 0;
  // Full metric delta of this event.
  sim::Metrics cost;
  // Oracle verdict after the event (true when the session does not check).
  bool oracle_ok = true;
};

// Applies one event through the session: kOp members go through apply(),
// damage kinds through apply_batch() (one delete_batch repair), kHeal
// members through apply() one by one (heal-time reconciliation), with the
// components_before/after fields filled from the session's forest.
FaultRecord apply_fault(core::MaintenanceSession& session,
                        const FaultEvent& event);

}  // namespace kkt::workload
