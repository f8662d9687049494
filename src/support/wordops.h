// Word-path (<= 64 bit) arithmetic rules shared by every simulator that
// computes narrow values in a single uint64_t: vsim's bytecode VM and the
// FSMD simulator's decoded datapath.  Each must agree with the matching
// BitVector operation bit for bit (operands are clean `width`-bit values;
// results may carry bits above `width`, which the caller masks off).
#ifndef C2H_SUPPORT_WORDOPS_H
#define C2H_SUPPORT_WORDOPS_H

#include "support/bitvector.h"

#include <cstdint>

namespace c2h {

// Zero/sign-extend (or truncate) a word-path value from `from` bits to
// `to` bits (to <= 64).  `from` may exceed 64 — then `v` is the low word
// and the operation is a truncation.
inline std::uint64_t extWord(std::uint64_t v, unsigned from, unsigned to,
                             bool sgn) {
  if (to <= from)
    return v & BitVector::wordMask(to);
  if (sgn && ((v >> (from - 1)) & 1))
    return v | (BitVector::wordMask(to) & ~BitVector::wordMask(from));
  return v;
}

// Division at `width` bits: divide-by-zero yields all-ones; signed
// division truncates toward zero (magnitudes, then sign fixup), so the
// most negative value divided by -1 is itself.
inline std::uint64_t divWord(std::uint64_t x, std::uint64_t y,
                             unsigned width, bool sgn) {
  std::uint64_t mask = BitVector::wordMask(width);
  if (!sgn)
    return y == 0 ? mask : x / y;
  std::uint64_t sbit = 1ull << (width - 1);
  bool negX = (x & sbit) != 0, negY = (y & sbit) != 0;
  std::uint64_t mx = negX ? (0 - x) & mask : x;
  std::uint64_t my = negY ? (0 - y) & mask : y;
  std::uint64_t q = my == 0 ? mask : mx / my;
  if (negX != negY)
    q = 0 - q;
  return q;
}

// Remainder at `width` bits: x % 0 yields x; the sign of a signed
// remainder follows the dividend, like C.
inline std::uint64_t modWord(std::uint64_t x, std::uint64_t y,
                             unsigned width, bool sgn) {
  std::uint64_t mask = BitVector::wordMask(width);
  if (!sgn)
    return y == 0 ? x : x % y;
  std::uint64_t sbit = 1ull << (width - 1);
  bool negX = (x & sbit) != 0, negY = (y & sbit) != 0;
  std::uint64_t mx = negX ? (0 - x) & mask : x;
  std::uint64_t my = negY ? (0 - y) & mask : y;
  std::uint64_t r = my == 0 ? mx : mx % my;
  if (negX)
    r = 0 - r;
  return r;
}

// Arithmetic shift right of a `width`-bit value (sign-extended through
// bit 63 first; amounts saturate at 63 once everything is sign bits).
inline std::uint64_t ashrWord(std::uint64_t x, unsigned amt,
                              unsigned width) {
  std::int64_t sx =
      static_cast<std::int64_t>(extWord(x, width, 64, true));
  unsigned sh = amt > 63 ? 63 : amt;
  return static_cast<std::uint64_t>(sx >> sh);
}

} // namespace c2h

#endif // C2H_SUPPORT_WORDOPS_H
