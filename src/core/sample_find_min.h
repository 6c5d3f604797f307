// Appendix-A FindMin: superpolynomial edge weights via sampled pivots.
//
// With w-bit weights the oblivious w-wise search of Section 3.1 needs
// ~w / lg(w) narrowings. Appendix A replaces the oblivious slice boundaries
// with pivots drawn from the actual weight population: the routine
// Sample(j, k) returns the next-chunk values of r edges drawn uniformly at
// random from the non-tree edges incident to the tree whose augmented
// weights extend the current prefix p within chunk range [j, k]. Searching
// proceeds over 16-bit chunks of the augmented weight:
//   * pivots from Sample partition [j, k]; one amplified TestOut tests all
//     resulting intervals concurrently; the lightest positive interval is
//     verified with HP-TestOut exactly as in FindMin;
//   * when an interval collapses to a single chunk value, the prefix is
//     extended by that chunk and the search recurses into the next chunk;
//   * if sampling returns no useful pivot (few matching edges), the chunk
//     midpoint is used as a fallback pivot, so a narrowing always halves
//     the chunk range in the worst case.
// Expected broadcast-and-echoes stay O(log n / log log n)-flavored because
// random pivots land within a constant factor of the lightest edge's rank
// (paper, proof of Theorem A.1); the midpoint fallback bounds the worst
// case by O(w / chunk_bits + chunk_bits * levels).
#pragma once

#include <cstdint>

#include "core/find_min.h"

namespace kkt::core {

struct SampleFindMinConfig {
  int c = 2;
  // Odd hashes per TestOut broadcast-and-echo (see FindMinConfig).
  int hash_reps = 4;
};

// Same contract as find_min: the minimum-weight edge leaving root's tree.
FindMinResult sample_find_min(proto::TreeOps& ops, NodeId root,
                              const SampleFindMinConfig& cfg = {});

}  // namespace kkt::core
