// 64/128-bit modular arithmetic used by the hashing machinery.
//
// HP-TestOut evaluates Schwartz-Zippel products over Z_p with p just below
// 2^63 (the paper, Section 2.2: "we may take p to be the maximum prime p with
// |p| < w"). mulmod therefore needs the full 64x64->128 multiply.
#pragma once

#include <cassert>
#include <cstdint>

namespace kkt::util {

using u128 = unsigned __int128;

// (a * b) mod m for any m < 2^64.
constexpr std::uint64_t mulmod(std::uint64_t a, std::uint64_t b,
                               std::uint64_t m) noexcept {
  assert(m != 0);
  return static_cast<std::uint64_t>(static_cast<u128>(a) * b % m);
}

// (a + b) mod m, assuming a, b < m.
constexpr std::uint64_t addmod(std::uint64_t a, std::uint64_t b,
                               std::uint64_t m) noexcept {
  assert(a < m && b < m);
  const std::uint64_t s = a + b;
  return (s >= m || s < a) ? s - m : s;
}

// (a - b) mod m, assuming a, b < m.
constexpr std::uint64_t submod(std::uint64_t a, std::uint64_t b,
                               std::uint64_t m) noexcept {
  assert(a < m && b < m);
  return a >= b ? a - b : a + (m - b);
}

// a^e mod m by square-and-multiply.
constexpr std::uint64_t powmod(std::uint64_t a, std::uint64_t e,
                               std::uint64_t m) noexcept {
  assert(m != 0);
  std::uint64_t base = a % m;
  std::uint64_t acc = 1 % m;
  while (e != 0) {
    if (e & 1) acc = mulmod(acc, base, m);
    base = mulmod(base, base, m);
    e >>= 1;
  }
  return acc;
}

// Modular inverse of a modulo prime p (Fermat). Precondition: a % p != 0.
constexpr std::uint64_t invmod_prime(std::uint64_t a, std::uint64_t p) noexcept {
  assert(a % p != 0);
  return powmod(a, p - 2, p);
}

// High 128 bits of the 256-bit product a * b, built from four 64x64->128
// partial products with explicit carry tracking (carry-save): the sum of the
// two middle partials can exceed 128 bits by exactly one carry.
constexpr u128 mulhi128(u128 a, u128 b) noexcept {
  const std::uint64_t a1 = static_cast<std::uint64_t>(a >> 64);
  const std::uint64_t a0 = static_cast<std::uint64_t>(a);
  const std::uint64_t b1 = static_cast<std::uint64_t>(b >> 64);
  const std::uint64_t b0 = static_cast<std::uint64_t>(b);
  const u128 ll = static_cast<u128>(a0) * b0;
  const u128 lh = static_cast<u128>(a0) * b1;
  const u128 hl = static_cast<u128>(a1) * b0;
  const u128 hh = static_cast<u128>(a1) * b1;
  // mid = lh + hl + hi64(ll); lh + hi64(ll) cannot overflow
  // ((2^64-1)^2 + (2^64-1) < 2^128), the second add can carry once.
  const u128 mid_lo = lh + static_cast<std::uint64_t>(ll >> 64);
  const u128 mid = mid_lo + hl;
  const u128 carry = mid < mid_lo ? (u128{1} << 64) : 0;
  return hh + static_cast<std::uint64_t>(mid >> 64) + carry;
}

// Barrett reduction mod a fixed 64-bit modulus: one up-front 128-bit
// division at construction buys division-free (multiply-high) reduction of
// any 128-bit value afterwards. Exact for every t < 2^128 -- the estimated
// quotient floor(t * floor(2^128/m) / 2^128) undershoots floor(t/m) by at
// most 2, fixed by conditional subtractions -- so results are bit-identical
// to t % m. This is the hot-path replacement for the compiler's __umodti3
// in the Karp-Rabin / pairwise / Schwartz-Zippel inner loops.
class Barrett {
 public:
  constexpr explicit Barrett(std::uint64_t m) noexcept
      : recip_(~u128{0} / m), m_(m) {
    assert(m >= 2);
  }

  // t mod m, exactly.
  constexpr std::uint64_t reduce(u128 t) const noexcept {
    const u128 q = mulhi128(t, recip_);
    u128 rem = t - q * m_;
    while (rem >= m_) rem -= m_;  // at most two iterations (Barrett bound)
    return static_cast<std::uint64_t>(rem);
  }

  // (a * b) mod m, exactly; equals mulmod(a, b, m) for every a, b.
  constexpr std::uint64_t mul(std::uint64_t a, std::uint64_t b) const noexcept {
    return reduce(static_cast<u128>(a) * b);
  }

  constexpr std::uint64_t modulus() const noexcept { return m_; }

 private:
  u128 recip_;  // floor(2^128 / m); m is odd in all our uses, never a
                // divisor of 2^128, so ~0/m computes it exactly
  std::uint64_t m_;
};

// The largest prime below 2^63. Default field modulus for HP-TestOut: it
// exceeds every edge number (< 2^62 by construction, see graph/edge_ids.h)
// and B/eps(n) for all practical B and eps, as the paper permits for a
// word size w = 64.
inline constexpr std::uint64_t kPrimeBelow63 = 9223372036854775783ULL;

static_assert(kPrimeBelow63 < (1ULL << 63));

}  // namespace kkt::util
