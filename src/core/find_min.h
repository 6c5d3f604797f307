// FindMin / FindMin-C (paper Section 3.1): the minimum-weight leaving edge.
//
// The initiator repeatedly tests w slices of the current (augmented-)weight
// range with one sliced TestOut, takes the lightest positive slice, verifies
// with HP-TestOut that (a) nothing lighter leaves the tree and (b) the slice
// really contains a leaving edge, and narrows. Each successful narrowing
// divides the range by w, so lg(maxWt)/lg(w) narrowings suffice; with
// w = Theta(log n) that is O(log n / log log n) broadcast-and-echoes on a
// polynomial weight range.
//
// FindMin retries each narrowing until TestOut cooperates (expected 1/q
// attempts, q >= 1/8), with a w.h.p. cap; FindMin-C caps the total attempt
// count at twice the expectation, trading certainty for a worst-case bound:
// it returns the true minimum with probability >= 2/3 - n^-c and otherwise
// (w.h.p.) the empty answer rather than a wrong edge (Lemma 2).
//
// Augmented weights make the minimum unique, and a range narrowed to a
// single augmented weight *is* the edge: its low 62 bits are the edge
// number, from which both endpoint IDs are read off.
#pragma once

#include <cstdint>
#include <optional>

#include "core/wire.h"
#include "proto/tree_ops.h"

namespace kkt::core {

using graph::NodeId;

struct FindMinConfig {
  // Slices per broadcast-and-echo; the paper's w = Theta(log n). The
  // ablation bench sweeps this down to 2 (binary search).
  int w = 64;
  // Failure exponent: success probability >= 1 - n^-c.
  int c = 2;
  // FindMin-C: cap iterations at twice the expected count.
  bool capped = false;
  // Independent odd hashes evaluated per broadcast-and-echo (derived from a
  // single broadcast seed word; the echo carries one parity word each, so
  // the message stays CONGEST-legal). Each hash finds a nonempty slice
  // with probability q >= 1/8, so the slice is missed with probability
  // <= (7/8)^hash_reps. 1 reproduces the paper's single-hash TestOut.
  int hash_reps = 8;
  // Constant-factor refinements over the paper's literal steps 6-7. Both
  // exploit one-sided certainty and change no asymptotic or probabilistic
  // guarantee; set to false for the paper-faithful execution.
  //  * A set TestOut bit *proves* its slice has a leaving edge (the parity
  //    of an empty set is never odd), so re-verifying the chosen slice with
  //    HP-TestOut (the paper's TestInterval) is redundant.
  bool skip_redundant_interval_check = true;
  //  * When the chosen slice is the first slice, the paper's TestLow range
  //    [0, j_min - 1] is exactly the region certified empty by the previous
  //    iteration's TestLow; skip re-certifying it.
  bool skip_certified_low_check = true;
};

struct FindMinStats {
  int iterations = 0;        // executions of steps 4-8
  int narrowings = 0;        // successful range reductions
  bool budget_exhausted = false;
};

struct FindMinResult {
  bool found = false;
  graph::AugWeight aug = 0;    // augmented weight of the minimum leaving edge
  graph::EdgeNum edge_num = 0; // == low 62 bits of aug
  FindMinStats stats;
};

// Finds the minimum-weight edge leaving the tree containing `root`
// (the tree given by ops.tree()). Returns found=false if there is none
// (always correct in that case) or if the retry budget was exhausted.
FindMinResult find_min(proto::TreeOps& ops, NodeId root,
                       const FindMinConfig& cfg = {});

inline FindMinResult find_min_c(proto::TreeOps& ops, NodeId root,
                                FindMinConfig cfg = {}) {
  cfg.capped = true;
  return find_min(ops, root, cfg);
}

// Step 2's broadcast-and-echo: the largest augmented weight incident to the
// tree (any leaving edge is incident to a tree node, so this bounds the
// search range). 0 if the tree has no incident edges at all.
graph::AugWeight max_incident_aug(proto::TreeOps& ops, NodeId root);

}  // namespace kkt::core
