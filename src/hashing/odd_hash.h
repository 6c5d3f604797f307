// Random odd hash functions (paper Section 2.1).
//
// A random h : U -> {0,1} is eps-odd if for every non-empty S subseteq U,
//   Pr_h[ sum_{x in S} h(x) is odd ] >= eps.
// We use the construction the paper takes from Thorup (arXiv:1411.4982):
//   h(x) = 1  iff  (a * x mod 2^w) <= t
// with a a uniform odd multiplier and t a uniform threshold, which is
// (1/8)-odd. With w = 64, "mod 2^w" is free: unsigned multiplication
// discards overflow, exactly the efficiency remark in the paper.
//
// TestOut broadcasts one OddHash down the tree; each node evaluates the
// parity of the hashes of its incident (range-filtered) edge numbers. An
// OddHash is therefore serializable into two 64-bit message words.
#pragma once

#include <cstdint>

#include "util/rng.h"

namespace kkt::hashing {

class OddHash {
 public:
  // An arbitrary but fixed default; prefer OddHash::random.
  constexpr OddHash() noexcept : multiplier_(1), threshold_(0) {}

  constexpr OddHash(std::uint64_t multiplier, std::uint64_t threshold) noexcept
      : multiplier_(multiplier | 1), threshold_(threshold) {}

  // Draw a fresh function from the family.
  static OddHash random(util::Rng& rng) noexcept {
    return OddHash(rng.next() | 1, rng.next());
  }

  // Deterministically expand (seed, index) into a member of the family.
  // Lets a broadcast ship one 64-bit seed from which every node derives the
  // same `index`-th hash -- the amplified TestOut evaluates several
  // independent hashes per broadcast-and-echo without exceeding the
  // CONGEST message budget.
  static constexpr OddHash from_seed(std::uint64_t seed, int index) noexcept {
    std::uint64_t s = util::mix_seeds(seed, static_cast<std::uint64_t>(index));
    const std::uint64_t a = util::splitmix64(s) | 1;
    const std::uint64_t t = util::splitmix64(s);
    return OddHash(a, t);
  }

  // h(x) in {0,1}.
  constexpr bool operator()(std::uint64_t x) const noexcept {
    return multiplier_ * x <= threshold_;  // wraparound == mod 2^64
  }

  // All-ones word iff h(x) == 1, else zero: batched evaluators (TestOut's
  // sliced parities) fold this into their accumulators branch-free, since
  // h fires on roughly half the keys and the branch would be unpredictable.
  // Inline and stateless beyond the two words, so a sweep over a fixed-size
  // bank of copies can hold every multiplier and threshold in registers.
  constexpr std::uint64_t mask(std::uint64_t x) const noexcept {
    return 0 - static_cast<std::uint64_t>(multiplier_ * x <= threshold_);
  }

  // Parity (mod-2 sum) of h over a range of keys. XOR of full-width masks;
  // no per-key branch.
  template <typename Iter>
  constexpr bool parity(Iter first, Iter last) const noexcept {
    std::uint64_t acc = 0;
    for (; first != last; ++first) acc ^= mask(*first);
    return (acc & 1) != 0;
  }

  // Wire format: exactly two message words.
  constexpr std::uint64_t multiplier() const noexcept { return multiplier_; }
  constexpr std::uint64_t threshold() const noexcept { return threshold_; }

  friend constexpr bool operator==(const OddHash&, const OddHash&) = default;

 private:
  std::uint64_t multiplier_;  // always odd
  std::uint64_t threshold_;
};

// The guaranteed oddness constant of this family (Thorup 2014): the success
// probability q of a single TestOut on a non-empty cut. FindMin's retry
// budget is expressed in terms of q (paper, Section 3.1).
inline constexpr double kOddHashSuccessLowerBound = 0.125;

}  // namespace kkt::hashing
