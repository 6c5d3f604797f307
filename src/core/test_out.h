// TestOut (paper Section 2.1) and its w-sliced variant (Section 3.1).
//
// TestOut(x, j, k) decides, with one broadcast-and-echo, whether some edge
// with (augmented) weight in [j, k] leaves the tree T_x. Every node XORs
// h(e) over its incident in-range edges; edges internal to the tree are
// counted at both endpoints and cancel, so the tree-wide parity equals the
// parity of h over the cut. With an (1/8)-odd hash:
//   * cut empty   -> always returns false (one-sided),
//   * cut nonempty-> returns true with probability >= 1/8.
//
// Because the echo of a single TestOut is one bit, w slices of the range
// are tested concurrently in a single broadcast-and-echo whose echo packs
// the w bits into one word -- the engine of FindMin's O(log n / log log n)
// round bound.
#pragma once

#include <cstdint>
#include <span>

#include "core/wire.h"
#include "hashing/odd_hash.h"
#include "proto/tree_ops.h"
#include "util/modmath.h"

namespace kkt::core {

using graph::NodeId;

// The per-run state of a sliced TestOut, a pure function of its payload:
// the slice width's reciprocal and a bank of 1..8 odd hashes (borrowed).
// The initiator builds it once instead of every node re-deriving it.
struct SlicedKernel {
  Interval range;
  util::Recip128 width;  // slice_width(range, w)
  std::span<const hashing::OddHash> bank;

  // Word r, bit i: parity of bank[r] over the entries of `row` in slice i.
  // `row` ascends from range.lo or later; the walk stops past range.hi and
  // divides only when an entry leaves the current slice. Each bank size
  // has its own compiled sweep, which holds the bank and the accumulators
  // in registers across the row as far as they fit.
  Words parities(std::span<const AugWeight> row, int en_bits) const;
};

// One broadcast-and-echo; bit i of the result is TestOut over slice i of
// `range` (i in [0, w)). All slices share the hash h, exactly as in the
// paper ("the same hash function can be used for each of the parallel
// TestOut's"). w in [1, 64].
std::uint64_t test_out_sliced(proto::TreeOps& ops, NodeId root,
                              const hashing::OddHash& h, Interval range,
                              int w);

// Single-interval TestOut: true certifies a leaving edge with augmented
// weight in `range`; false is correct with probability >= 1/8 when the cut
// is nonempty and always correct when it is empty.
bool test_out(proto::TreeOps& ops, NodeId root, const hashing::OddHash& h,
              Interval range);

// Unrestricted TestOut(x): any leaving edge at all.
bool test_out_any(proto::TreeOps& ops, NodeId root, const hashing::OddHash& h);

// Amplified sliced TestOut: `reps` independent odd hashes, all derived from
// the one broadcast `seed` word (hashing::OddHash::from_seed), are evaluated
// in the same broadcast-and-echo; the echo carries one parity word per hash
// (reps <= kMaxMessageWords keeps the message CONGEST-legal). Bit i of the
// result is set iff ANY repetition saw odd parity in slice i -- still
// one-sided (a set bit certifies a leaving edge in that slice), but a
// nonempty slice is now missed only with probability <= (1-q)^reps.
std::uint64_t test_out_sliced_amplified(proto::TreeOps& ops, NodeId root,
                                        std::uint64_t seed, Interval range,
                                        int w, int reps);

}  // namespace kkt::core
