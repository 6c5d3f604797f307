// kkt_lint: repo-specific static analysis the compiler cannot do.
//
// Every number this repo publishes is a deterministic model cost: the same
// descriptor must produce bit-identical counters on any machine, at any
// thread count, forever (docs/ARCHITECTURE.md, "Determinism rules"). The
// compiler cannot enforce that contract -- nothing stops a PR from reading
// the wall clock, iterating a hash table into a result, or allocating on
// the zero-allocation wire path. kkt_lint makes those mistakes a build
// failure instead of a silently skewed artifact.
//
// The checks are lexical, not semantic: sources are stripped of comments
// and string literals and matched against rule patterns (plus a little
// identifier tracking for the unordered-iteration rule). That is exactly
// enough for this codebase's idioms and keeps the tool dependency-free; it
// is not a general C++ parser and does not try to be.
//
// Findings can be suppressed inline with a justified allow-comment; the
// full rule catalogue, rationale, and suppression syntax live in
// docs/LINT_RULES.md. A suppression without a written justification, or
// one that matches no finding, is itself a finding -- stale or lazy
// escapes rot the contract just like violations do.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "report/json.h"

namespace kkt::lint {

// Stable rule identifiers. Names (rule_name) are the IDs used in
// allow-comments, JSON findings, and docs/LINT_RULES.md.
enum class RuleId {
  kRandSource,          // entropy/time/stdlib-RNG outside util/rng.h
  kUnorderedIter,       // iteration over unordered containers
  kPtrKeyOrdered,       // pointer-keyed ordered containers
  kHotpathAlloc,        // allocation on the zero-allocation wire path
  kSharedStatic,        // mutable static / thread_local in hot-path files
  kPragmaOnce,          // header missing #pragma once
  kUsingNamespaceHeader,// using namespace at header scope
  kTestUnregistered,    // tests/*_test.cc absent from tests/CMakeLists.txt
  kBadSuppression,      // malformed allow-comment (no justification / rule)
  kUnusedSuppression,   // allow-comment that matched no finding
  kCount,
};

inline constexpr int kRuleCount = static_cast<int>(RuleId::kCount);

// "rand-source", "unordered-iter", ... (stable; used in allow-comments).
std::string_view rule_name(RuleId rule) noexcept;
std::optional<RuleId> rule_from_name(std::string_view name) noexcept;

// Which rule groups apply to a file. The repo-layout policy that assigns
// classes to paths lives in repo_scan.h (classify_path); tests construct
// classes directly to exercise rules on fixture snippets.
struct FileClass {
  // pragma-once and using-namespace-header checks (any .h in the tree).
  bool header = false;
  // rand-source, unordered-iter and ptr-key-ordered checks: everything
  // under src/ and tools/ -- the code that produces or renders results.
  bool determinism = false;
  // hotpath-alloc checks: the wire/transport files whose zero-allocation
  // property tests/alloc_test.cc measures at runtime.
  bool hot_path = false;
  // The one module allowed to be a randomness source (src/util/rng.h).
  bool rng_util = false;
};

struct Finding {
  std::string file;     // repo-relative path (or fixture name in tests)
  int line = 0;         // 1-based
  RuleId rule = RuleId::kCount;
  std::string message;  // what happened and which invariant it threatens
  std::string excerpt;  // the offending source line, trimmed
};

// Deterministic ordering for reports: (file, line, rule).
bool finding_less(const Finding& a, const Finding& b) noexcept;

struct ScanStats {
  int suppressions_total = 0;  // well-formed allow-comments seen
  int suppressions_used = 0;   // those that matched >= 1 finding
};

// Scans one file's contents under the given class. `extra_unordered` seeds
// the unordered-iteration tracker with identifiers declared elsewhere
// (e.g. members declared in the paired header when scanning a .cc).
std::vector<Finding> scan_file(std::string_view path, std::string_view text,
                               const FileClass& cls,
                               std::span<const std::string> extra_unordered = {},
                               ScanStats* stats = nullptr);

// Identifiers declared in `text` with an unordered container type; feed
// these into scan_file(extra_unordered) for the paired source file.
std::vector<std::string> collect_unordered_names(std::string_view text);

// Repo-level hygiene: every `tests/<name>_test.cc` must be registered in
// tests/CMakeLists.txt (i.e. `cmake_text` mentions `<name>_test` as a
// word). `test_files` holds repo-relative paths; findings point at
// `cmake_path`.
std::vector<Finding> check_test_registration(
    std::span<const std::string> test_files, std::string_view cmake_text,
    std::string_view cmake_path);

// Machine-readable findings in the spirit of the unified result schema:
// deterministic member order, findings sorted by finding_less, integral
// numbers -- byte-identical across runs given the same inputs.
report::JsonValue findings_to_json(std::span<const Finding> findings,
                                   int files_scanned,
                                   const ScanStats& stats);

// Human-readable one-line-per-finding rendering ("file:line: [rule] ...").
std::string findings_to_text(std::span<const Finding> findings,
                             int files_scanned, const ScanStats& stats);

}  // namespace kkt::lint
