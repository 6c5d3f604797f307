// The one text codec for workload traces (docs/TRACE_FORMAT.md). Plain
// update traces are the bare-op subset of the fault-trace format, so they
// are written with the same op lines and read by the fault reader.
#include "workload/trace.h"

#include <cassert>
#include <fstream>
#include <ostream>
#include <sstream>

#include "workload/faults.h"

namespace kkt::workload {
namespace {

std::nullopt_t fail(std::string* error, const std::string& msg) {
  if (error != nullptr) *error = msg;
  return std::nullopt;
}

void fnv_mix(std::uint64_t& h, std::uint64_t x) noexcept {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (x >> (8 * byte)) & 0xff;
    h *= 1099511628211ULL;
  }
}

void fnv_mix_op(std::uint64_t& h, const core::UpdateOp& op) noexcept {
  fnv_mix(h, static_cast<std::uint64_t>(op.kind));
  fnv_mix(h, op.u);
  fnv_mix(h, op.v);
  fnv_mix(h, op.weight);
}

void write_op(std::ostream& os, const core::UpdateOp& op) {
  switch (op.kind) {
    case core::OpKind::kInsert:
      os << "+ " << op.u << ' ' << op.v << ' ' << op.weight << '\n';
      break;
    case core::OpKind::kDelete:
      os << "- " << op.u << ' ' << op.v << '\n';
      break;
    case core::OpKind::kWeightChange:
      os << "~ " << op.u << ' ' << op.v << ' ' << op.weight << '\n';
      break;
  }
}

// The member discipline each event kind enforces on read (and that the
// generators produce): damage kinds delete, heal inserts, kOp is free.
bool member_kind_ok(FaultKind event, core::OpKind member) noexcept {
  switch (event) {
    case FaultKind::kOp: return true;
    case FaultKind::kBatchDelete:
    case FaultKind::kRegional:
    case FaultKind::kPartitionCut:
      return member == core::OpKind::kDelete;
    case FaultKind::kHeal: return member == core::OpKind::kInsert;
  }
  return false;
}

}  // namespace

std::uint64_t trace_digest(const UpdateTrace& t) noexcept {
  std::uint64_t h = 14695981039346656037ULL;  // FNV-1a offset basis
  fnv_mix(h, t.ops.size());
  for (const core::UpdateOp& op : t.ops) fnv_mix_op(h, op);
  return h;
}

std::uint64_t fault_trace_digest(const FaultTrace& t) noexcept {
  std::uint64_t h = 14695981039346656037ULL;  // FNV-1a offset basis
  fnv_mix(h, t.events.size());
  for (const FaultEvent& e : t.events) {
    fnv_mix(h, static_cast<std::uint64_t>(e.kind));
    fnv_mix(h, e.members.size());
    for (const core::UpdateOp& op : e.members) fnv_mix_op(h, op);
  }
  return h;
}

void write_trace(std::ostream& os, const UpdateTrace& t) {
  os << "# kkt-mst update trace\n";
  os << "t " << t.name << ' ' << t.seed << ' ' << t.ops.size() << '\n';
  for (const core::UpdateOp& op : t.ops) write_op(os, op);
}

void write_fault_trace(std::ostream& os, const FaultTrace& t) {
  os << "# kkt-mst fault trace\n";
  os << "t " << t.name << ' ' << t.seed << ' ' << t.events.size() << '\n';
  for (const FaultEvent& e : t.events) {
    if (e.kind == FaultKind::kOp) {
      // kOp events are bare op lines: a fault trace with only kOp events
      // is byte-compatible with the plain update-trace format.
      assert(e.members.size() == 1 && "kOp events carry exactly one op");
      write_op(os, e.members.front());
      continue;
    }
    os << "F " << fault_kind_name(e.kind) << ' ' << e.members.size() << '\n';
    for (const core::UpdateOp& op : e.members) write_op(os, op);
  }
}

bool write_trace_file(const std::string& path, const UpdateTrace& t) {
  std::ofstream out(path);
  if (!out) return false;
  write_trace(out, t);
  return static_cast<bool>(out);
}

bool write_fault_trace_file(const std::string& path, const FaultTrace& t) {
  std::ofstream out(path);
  if (!out) return false;
  write_fault_trace(out, t);
  return static_cast<bool>(out);
}

std::optional<FaultTrace> read_fault_trace(std::istream& is,
                                           std::string* error) {
  FaultTrace t;
  bool have_header = false;
  std::size_t declared_events = 0;
  std::size_t pending = 0;  // member op lines owed to the open F event

  std::string line;
  std::size_t lineno = 0;
  while (std::getline(is, line)) {
    ++lineno;
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind) || kind[0] == '#') continue;
    const auto bad = [&](const char* what) {
      return fail(error, "line " + std::to_string(lineno) + ": " + what);
    };
    if (kind == "t") {
      if (have_header) return bad("duplicate header");
      if (!(ls >> t.name >> t.seed >> declared_events)) {
        return bad("malformed header");
      }
      have_header = true;
      t.events.reserve(declared_events);
    } else if (kind == "F") {
      if (!have_header) return bad("fault event before header");
      if (pending > 0) return bad("unterminated fault event");
      std::string kind_name;
      std::size_t members = 0;
      if (!(ls >> kind_name >> members)) return bad("malformed fault event");
      const auto fk = fault_kind_from_name(kind_name);
      if (!fk.has_value()) return bad("unknown fault kind");
      if (*fk == FaultKind::kOp) {
        return bad("op events are written as bare op lines");
      }
      if (members == 0) return bad("empty fault event");
      t.events.push_back(FaultEvent{*fk, {}});
      t.events.back().members.reserve(members);
      pending = members;
    } else if (kind == "+" || kind == "-" || kind == "~") {
      if (!have_header) return bad("op before header");
      core::UpdateOp op;
      if (!(ls >> op.u >> op.v)) return bad("malformed endpoints");
      if (kind == "-") {
        op.kind = core::OpKind::kDelete;
      } else {
        op.kind = kind == "+" ? core::OpKind::kInsert
                              : core::OpKind::kWeightChange;
        if (!(ls >> op.weight) || op.weight == 0) return bad("bad weight");
      }
      if (op.u == op.v) return bad("self-loop op");
      if (pending > 0) {
        if (!member_kind_ok(t.events.back().kind, op.kind)) {
          return bad("member op kind not allowed in this fault event");
        }
        t.events.back().members.push_back(op);
        --pending;
      } else {
        t.events.push_back(FaultEvent::op(op));
      }
    } else {
      return bad("unknown record");
    }
  }
  if (!have_header) return fail(error, "missing trace header");
  if (pending > 0) return fail(error, "unterminated fault event at EOF");
  if (t.events.size() != declared_events) {
    return fail(error, "event count mismatch: header declares " +
                           std::to_string(declared_events) + ", found " +
                           std::to_string(t.events.size()));
  }
  return t;
}

std::optional<UpdateTrace> read_trace(std::istream& is, std::string* error) {
  auto ft = read_fault_trace(is, error);
  if (!ft) return std::nullopt;
  UpdateTrace t{std::move(ft->name), ft->seed, {}};
  t.ops.reserve(ft->events.size());
  for (const FaultEvent& e : ft->events) {
    if (e.kind != FaultKind::kOp) {
      return fail(error, std::string("fault event 'F ") +
                             fault_kind_name(e.kind) +
                             "' in an update trace (read it as a fault "
                             "trace)");
    }
    t.ops.push_back(e.members.front());
  }
  return t;
}

std::optional<FaultTrace> read_fault_trace_file(const std::string& path,
                                                std::string* error) {
  std::ifstream in(path);
  if (!in) return fail(error, "cannot open " + path);
  return read_fault_trace(in, error);
}

std::optional<UpdateTrace> read_trace_file(const std::string& path,
                                           std::string* error) {
  std::ifstream in(path);
  if (!in) return fail(error, "cannot open " + path);
  return read_trace(in, error);
}

}  // namespace kkt::workload
