// Word-path (<= 64 bit) semantics of the bytecode VM (cvm.cpp) that are
// Verilog's own: the shift-amount rule and compares over vsim opcodes.  The
// width-generic rules (extWord, divWord, modWord, ashrWord) live in
// support/wordops.h, shared with the FSMD simulator.  All must agree with
// the event engine's BitVector semantics bit for bit; a disagreement is a
// miscompare between the engines, not a crash.
#ifndef C2H_VSIM_WORDOPS_H
#define C2H_VSIM_WORDOPS_H

#include "support/bitvector.h"
#include "support/wordops.h"
#include "vsim/compile.h"

#include <cstdint>

namespace c2h::vsim {

// Verilog shift-amount rule, identical to the event engine: amounts with
// more than 31 active bits saturate to the operand width (shift all out).
inline unsigned shiftAmountWord(std::uint64_t amt, unsigned width) {
  return amt >= (1ull << 31) ? width : static_cast<unsigned>(amt);
}

// Signed/unsigned compare (op is CmpLt, CmpLe, CmpEq or CmpNe) of two
// values read at `cw` bits.
inline bool cmpWord(Op op, std::uint64_t x, std::uint64_t y, unsigned cw,
                    bool sgn) {
  if (sgn && (op == Op::CmpLt || op == Op::CmpLe)) {
    std::int64_t sx = static_cast<std::int64_t>(extWord(x, cw, 64, true));
    std::int64_t sy = static_cast<std::int64_t>(extWord(y, cw, 64, true));
    return op == Op::CmpLt ? sx < sy : sx <= sy;
  }
  switch (op) {
  case Op::CmpLt: return x < y;
  case Op::CmpLe: return x <= y;
  case Op::CmpEq: return x == y;
  default:        return x != y;
  }
}

} // namespace c2h::vsim

#endif // C2H_VSIM_WORDOPS_H
