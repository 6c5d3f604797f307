// FindAny / FindAny-C (paper Section 4.1): any edge leaving the tree, in an
// expected constant number of broadcast-and-echoes.
//
// After an HP-TestOut gate establishes (w.h.p.) that the cut is nonempty,
// each attempt:
//   (a) broadcasts a pairwise-independent h : edge numbers -> [r], r a power
//       of two exceeding the degree sum of the tree; every node echoes the
//       parity vector over the nested prefix ranges [2^i] of its incident
//       edges' hashes (internal edges cancel, as in TestOut);
//   (b) takes min = the smallest i with odd parity: with probability >= 1/16
//       exactly one cut edge hashes into [2^min] (Lemma 4), in which case
//       the XOR of edge numbers hashing below 2^min, aggregated up the tree,
//       is that edge's number;
//   (c) verifies by broadcasting the candidate and counting, via one echo,
//       how many tree nodes have an incident edge with that number: a count
//       of 1 certifies a cut edge (2 would mean an internal edge, 0 garbage).
// Odd-but->1 collisions can only produce a *wrong-looking* XOR, never a
// false certificate, so a returned edge is always a genuine leaving edge.
#pragma once

#include <cstdint>

#include "core/wire.h"
#include "proto/tree_ops.h"
#include "util/modmath.h"

namespace kkt::core {

using graph::NodeId;

struct FindAnyConfig {
  // Failure exponent: FindAny succeeds with probability >= 1 - n^-c.
  int c = 2;
  // FindAny-C: a single isolation attempt (success probability >= 1/16,
  // worst-case O(1) broadcast-and-echoes).
  bool capped = false;
  // Optional restriction of the search to a weight interval (the paper's
  // unweighted setting uses the full range; repair of an ST never needs it,
  // but the interval variant falls out for free and is tested).
  Interval range{0, ~util::u128{0} >> 1};
};

struct FindAnyStats {
  int attempts = 0;         // isolation attempts (steps 3-5)
  bool gate_empty = false;  // HP-TestOut said the cut is empty
  bool budget_exhausted = false;
};

struct FindAnyResult {
  bool found = false;
  graph::EdgeNum edge_num = 0;
  FindAnyStats stats;
};

// Finds some edge leaving the tree containing `root`. If the cut is empty
// the empty answer is always correct; a returned edge is always a genuine
// leaving edge.
FindAnyResult find_any(proto::TreeOps& ops, NodeId root,
                       const FindAnyConfig& cfg = {});

inline FindAnyResult find_any_c(proto::TreeOps& ops, NodeId root,
                                FindAnyConfig cfg = {}) {
  cfg.capped = true;
  return find_any(ops, root, cfg);
}

}  // namespace kkt::core
