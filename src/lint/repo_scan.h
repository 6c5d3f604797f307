// Repo-layout policy for kkt_lint: which files are scanned, and which rule
// groups apply where. Shared by the tools/kkt_lint CLI and the lint_test
// self-scan so "the tree is clean" means the same thing in both.
//
// Policy (rationale in docs/LINT_RULES.md):
//   * src/** and tools/**  (.h/.cc)  -> determinism rules; .h adds hygiene
//   * tests/**, examples/** (.h only) -> hygiene rules
//   * src/util/rng.h                 -> the one sanctioned randomness source
//   * the wire/transport files       -> hotpath-alloc on top (kHotPathFiles)
//   * tests/*_test.cc                -> must be registered in
//                                       tests/CMakeLists.txt
#pragma once

#include <array>
#include <optional>
#include <string>
#include <string_view>

#include "lint/lint.h"

namespace kkt::lint {

// The zero-allocation wire path (PR 2): files where tests/alloc_test.cc
// measures zero allocations per message at runtime and kkt_lint forbids
// allocating constructs statically. The perf campaign (PR 7) added the
// round-bucket delivery path, the protocol scratch arenas and the
// Barrett/hash inner loops -- all steady-state allocation-free, so they
// ride the same rule. Hot files also get the shared-static rule: their code
// runs in every world a SweepExecutor drives concurrently. The backend facade
// (graph.h) and implicit K_n (implicit.h) joined with the web-scale
// backends: every protocol incidence read crosses them, and the implicit
// query paths must stay allocation-free in steady state (the slot rings
// recycle their buffers; see graph/implicit.h).
// delivery_policy.h joined because delivery_time runs once per send: its
// config-time mutators may allocate, the per-send reads must stay clean.
// forest.h joined with the tree index: every TreeView walk reads it from
// handlers, so it must stay allocation-free (slab growth lives in
// forest.cc) and free of shared statics. The broadcast-and-echo hot path
// joined last: the protocol (broadcast_echo.cc, tree_ops.cc) and the
// TestOut / HP-TestOut kernels (test_out.cc, hp_test_out.cc) run once per
// node per FindMin step, and a whole FindMin is pinned allocation-free.
inline constexpr std::array<std::string_view, 19> kHotPathFiles = {
    "src/sim/inline_words.h", "src/sim/message.h", "src/sim/message.cc",
    "src/sim/network.h",      "src/sim/network.cc",
    "src/sim/delivery_policy.h",
    "src/proto/words.h",      "src/core/wire.h",   "src/proto/scratch.h",
    "src/util/modmath.h",     "src/hashing/odd_hash.h",
    "src/hashing/pairwise_hash.h", "src/graph/graph.h",
    "src/graph/implicit.h",   "src/graph/forest.h",
    "src/proto/broadcast_echo.cc", "src/proto/tree_ops.cc",
    "src/core/test_out.cc",   "src/core/hp_test_out.cc",
};

// Rule classes for a repo-relative path ('/'-separated); nullopt when the
// file is outside the scan policy.
std::optional<FileClass> classify_path(std::string_view rel_path);

struct RepoReport {
  std::vector<Finding> findings;
  int files_scanned = 0;
  ScanStats stats;
};

// Walks the repo rooted at `root` (must contain src/), scans every file the
// policy covers in sorted path order, and checks test registration. When
// scanning a .cc, unordered-container members declared in the same-named .h
// are tracked too. Throws std::runtime_error when `root` is not a repo
// checkout (no src/ directory).
RepoReport scan_repo(const std::string& root);

}  // namespace kkt::lint
