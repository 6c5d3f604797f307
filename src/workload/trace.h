// UpdateTrace: a dynamic workload as a reproducible artifact.
//
// A trace is a typed stream of Insert/Delete/WeightChange ops, valid in
// sequence against the graph it was generated for. Traces round-trip
// through a plain-text format so an interesting churn run can be recorded
// once and replayed forever (regressions, cross-machine comparisons,
// adversarial cases worth keeping):
//
//   # comments allowed
//   t <name> <seed> <nops>     -- header: workload name, generator seed,
//                                 op count (validated on read)
//   + <u> <v> <w>              -- insert edge {u, v} with weight w
//   - <u> <v>                  -- delete edge {u, v}
//   ~ <u> <v> <w>              -- change weight of {u, v} to w
//
// Node endpoints are internal ids (0-based), stable across replay because
// the graph is regenerated from the same scenario seed. trace_digest() is
// the 64-bit fingerprint tests pin to detect generator drift.
//
// Format spec with the validity rules and a round-trip example:
// docs/TRACE_FORMAT.md. The format is the bare-op subset of the fault-trace
// format (workload/faults.h); trace.cc holds the one codec for both, and
// read_trace is read_fault_trace minus `F` events. Guarantees:
// read_trace(write_trace(t)) == t for every valid trace; malformed input
// parses to nullopt with a diagnostic ("line N: ..." for syntax errors),
// never to a partial trace. UpdateTrace is a plain value --
// thread-safe to copy and share by const reference.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/session.h"

namespace kkt::workload {

struct UpdateTrace {
  std::string name = "trace";
  // Seed the trace was generated from (provenance; not used on replay).
  std::uint64_t seed = 0;
  std::vector<core::UpdateOp> ops;
};

// FNV-1a over the op stream (kind, endpoints, weight per op). Stable across
// platforms; pinned by the golden-trace tests.
std::uint64_t trace_digest(const UpdateTrace& t) noexcept;

void write_trace(std::ostream& os, const UpdateTrace& t);
bool write_trace_file(const std::string& path, const UpdateTrace& t);

// Parses a trace; returns nullopt (with a message in *error if non-null)
// on malformed input.
std::optional<UpdateTrace> read_trace(std::istream& is,
                                      std::string* error = nullptr);
std::optional<UpdateTrace> read_trace_file(const std::string& path,
                                           std::string* error = nullptr);

}  // namespace kkt::workload
