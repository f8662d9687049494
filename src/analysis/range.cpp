// Implementation of the value-range abstract interpreter (range.h).
//
// Structure:
//  * Interval lattice operations (join/meet/normalize + transfer helpers).
//  * A per-instruction transfer function (execInstr) shared verbatim by the
//    dataflow solver, the narrowing sweeps, the fact-collection sweep, and
//    the diagnostics' replay — whatever a diagnostic sees is exactly what
//    the solver proved.
//  * Per-function solving via ir::solveForwardDataflow, which iterates the
//    CFG in weak topological order (each loop stabilized before the code
//    after it runs) with widening at loop headers, followed by plain
//    narrowing sweeps (sound: applying the monotone transfer to a
//    post-fixpoint stays above the least one).  Block states are sparse
//    (range.h): a transfer loads its block's live-in intervals into a
//    per-solve scratch array indexed by vreg, executes the block there
//    without allocating, and packs each feasible successor's live-in set
//    into that successor's state, reusing the solver's out-buffer.
//    Liveness, the per-block branch refinement plans, the iteration order
//    and the loop headers are computed once per function per analyzeRanges.
//  * A module-level outer fixpoint growing memory/channel/return summaries
//    until stable (widened to top after a few rounds, and all of them set
//    to top at a round cap, so it terminates soundly).  Each function's
//    collection sweep logs what it adds to the summaries; a round re-solves
//    only the functions that read (load, receive or call) a summary the
//    round before grew, and the others keep their states and their log.
#include "analysis/range.h"

#include "ir/dataflow.h"
#include "ir/liveness.h"
#include "opt/irpasses.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cassert>
#include <optional>

namespace c2h::analysis {

using ir::Opcode;
using I128 = __int128;

// ---------------------------------------------------------------------------
// Interval lattice.

std::int64_t Interval::minSigned(unsigned width) {
  if (width == 0)
    return 0;
  if (width >= 64)
    return INT64_MIN;
  return -(std::int64_t(1) << (width - 1));
}

std::int64_t Interval::maxSigned(unsigned width) {
  if (width == 0)
    return 0;
  if (width >= 64)
    return INT64_MAX;
  return (std::int64_t(1) << (width - 1)) - 1;
}

Interval Interval::topFor(unsigned width) {
  Interval iv;
  iv.bot = false;
  if (width > 64) {
    iv.wide = true;
    return iv;
  }
  iv.lo = minSigned(width);
  iv.hi = maxSigned(width);
  iv.zeros = 0;
  return iv;
}

Interval Interval::range(std::int64_t lo, std::int64_t hi, unsigned width) {
  if (width > 64 || lo > hi)
    return topFor(width);
  Interval iv;
  iv.bot = false;
  iv.lo = std::max(lo, minSigned(width));
  iv.hi = std::min(hi, maxSigned(width));
  iv.zeros = 0;
  if (iv.lo > iv.hi)
    return topFor(width);
  return iv;
}

Interval Interval::constant(const BitVector &value) {
  unsigned w = value.width();
  if (w > 64)
    return topFor(w);
  Interval iv;
  iv.bot = false;
  iv.lo = iv.hi = value.toInt64();
  if (iv.lo >= 0) {
    std::uint64_t mask = w >= 64 ? ~std::uint64_t(0)
                                 : ((std::uint64_t(1) << w) - 1);
    iv.zeros = ~value.toUint64() & mask;
  }
  return iv;
}

bool Interval::isTop(unsigned width) const {
  if (bot)
    return false;
  if (width > 64)
    return wide;
  return !wide && lo == minSigned(width) && hi == maxSigned(width) &&
         zeros == 0;
}

bool Interval::mayBeZero() const {
  if (bot)
    return false;
  if (wide)
    return true;
  return lo <= 0 && 0 <= hi;
}

bool Interval::mayBeNonZero() const {
  if (bot)
    return false;
  if (wide)
    return true;
  return lo != 0 || hi != 0;
}

void Interval::normalize(unsigned width) {
  if (bot || wide)
    return;
  lo = std::max(lo, minSigned(width));
  hi = std::min(hi, maxSigned(width));
  if (lo > hi) {
    *this = bottom();
    return;
  }
  if (lo < 0) {
    zeros = 0;
    return;
  }
  if (width < 64 && zeros != 0) {
    std::uint64_t mask = (std::uint64_t(1) << width) - 1;
    zeros &= mask;
    std::uint64_t maxPattern = mask & ~zeros;
    if (static_cast<std::uint64_t>(hi) > maxPattern)
      hi = static_cast<std::int64_t>(maxPattern);
    if (lo > hi)
      *this = bottom();
  }
}

void Interval::join(const Interval &other, unsigned width) {
  if (other.bot)
    return;
  if (bot) {
    *this = other;
    return;
  }
  if (wide || other.wide) {
    *this = topFor(width > 64 ? width : 65); // wide top
    this->wide = true;
    this->bot = false;
    return;
  }
  lo = std::min(lo, other.lo);
  hi = std::max(hi, other.hi);
  zeros &= other.zeros;
  normalize(width);
}

bool Interval::meet(const Interval &other) {
  if (bot || other.bot) {
    *this = bottom();
    return false;
  }
  if (other.wide)
    return true; // no extra information
  if (wide) {
    *this = other;
    return true;
  }
  lo = std::max(lo, other.lo);
  hi = std::min(hi, other.hi);
  zeros |= other.zeros;
  if (lo > hi) {
    *this = bottom();
    return false;
  }
  // Re-clamp hi against the (possibly grown) zero mask when non-negative.
  if (lo >= 0 && zeros != 0) {
    std::uint64_t maxPattern = ~zeros;
    if (static_cast<std::uint64_t>(hi) > maxPattern)
      hi = static_cast<std::int64_t>(maxPattern & INT64_MAX);
    if (lo > hi) {
      *this = bottom();
      return false;
    }
  }
  return true;
}

std::string Interval::str() const {
  if (bot)
    return "bottom";
  if (wide)
    return "wide";
  // Appended piecewise: GCC 12 at -O3 reports a false -Wrestrict on
  // `"[" + std::to_string(lo)`.
  std::string text = "[";
  text += std::to_string(lo);
  text += ", ";
  text += std::to_string(hi);
  text += ']';
  return text;
}

namespace {

bool sameInterval(const Interval &a, const Interval &b) {
  if (a.bot != b.bot || a.wide != b.wide)
    return false;
  if (a.bot || a.wide)
    return true;
  return a.lo == b.lo && a.hi == b.hi && a.zeros == b.zeros;
}

Interval fitOrTop(I128 lo, I128 hi, unsigned width) {
  if (width > 64)
    return Interval::topFor(width);
  if (lo < Interval::minSigned(width) || hi > Interval::maxSigned(width))
    return Interval::topFor(width);
  return Interval::range(static_cast<std::int64_t>(lo),
                         static_cast<std::int64_t>(hi), width);
}

unsigned bitsFor(std::int64_t v) {
  unsigned w = 0;
  std::uint64_t u = v <= 0 ? 0 : static_cast<std::uint64_t>(v);
  while (u) {
    ++w;
    u >>= 1;
  }
  return w;
}

std::uint64_t lowMask(unsigned bits) {
  return bits >= 64 ? ~std::uint64_t(0) : ((std::uint64_t(1) << bits) - 1);
}

// Width-change transfers matching BitVector::resize(toW, false): zero-extend
// when growing, truncate when shrinking, all in the signed-canonical view.
Interval truncInterval(const Interval &iv, unsigned toW) {
  if (iv.bot)
    return iv;
  if (iv.wide || toW > 64)
    return Interval::topFor(toW);
  std::int64_t mn = Interval::minSigned(toW), mx = Interval::maxSigned(toW);
  if (iv.lo >= mn && iv.hi <= mx) {
    Interval out = iv;
    if (toW < 64)
      out.zeros &= lowMask(toW);
    out.normalize(toW);
    return out;
  }
  // Pattern preserved but sign reinterpreted: a non-negative range that
  // fits toW bits maps to [lo - 2^toW, hi - 2^toW] when wholly above maxS.
  if (toW <= 63 && iv.lo >= 0) {
    I128 cap = (I128(1) << toW) - 1;
    if (iv.hi <= cap && iv.lo > mx)
      return fitOrTop(I128(iv.lo) - (I128(1) << toW),
                      I128(iv.hi) - (I128(1) << toW), toW);
  }
  return Interval::topFor(toW);
}

Interval zextInterval(const Interval &iv, unsigned fromW, unsigned toW) {
  if (iv.bot)
    return iv;
  if (iv.wide || toW > 64 || fromW > 64)
    return Interval::topFor(toW);
  if (iv.lo >= 0) {
    Interval out = iv;
    if (toW <= 64 && fromW < 64)
      out.zeros |= lowMask(std::min(toW, 64u)) & ~lowMask(fromW);
    out.normalize(toW);
    return out;
  }
  if (fromW > 63)
    return Interval::topFor(toW);
  I128 wrap = I128(1) << fromW;
  if (iv.hi < 0)
    return fitOrTop(I128(iv.lo) + wrap, I128(iv.hi) + wrap, toW);
  return fitOrTop(0, wrap - 1, toW); // straddles zero
}

Interval resizeInterval(const Interval &iv, unsigned fromW, unsigned toW) {
  if (toW == fromW)
    return iv;
  if (toW > fromW)
    return zextInterval(iv, fromW, toW);
  return truncInterval(iv, toW);
}

// ---------------------------------------------------------------------------
// Transfer helpers for individual opcodes.

Interval addSub(bool isSub, const Interval &a, const Interval &b, unsigned W) {
  if (isSub)
    return fitOrTop(I128(a.lo) - b.hi, I128(a.hi) - b.lo, W);
  return fitOrTop(I128(a.lo) + b.lo, I128(a.hi) + b.hi, W);
}

Interval mulInterval(const Interval &a, const Interval &b, unsigned W) {
  I128 c[4] = {I128(a.lo) * b.lo, I128(a.lo) * b.hi, I128(a.hi) * b.lo,
               I128(a.hi) * b.hi};
  I128 lo = c[0], hi = c[0];
  for (int i = 1; i < 4; ++i) {
    lo = std::min(lo, c[i]);
    hi = std::max(hi, c[i]);
  }
  return fitOrTop(lo, hi, W);
}

// sdiv semantics: x/0 yields all-ones magnitude sign-adjusted, so the
// quotient of a division by zero is always -1 or +1 (0/0 = -1).
Interval divSInterval(const Interval &a, const Interval &b, unsigned W) {
  I128 qlo = 0, qhi = 0;
  bool any = false;
  auto acc = [&](I128 q) {
    if (!any) {
      qlo = qhi = q;
      any = true;
    } else {
      qlo = std::min(qlo, q);
      qhi = std::max(qhi, q);
    }
  };
  std::int64_t ds[4] = {b.lo, b.hi, -1, 1};
  for (std::int64_t d : ds) {
    if (d == 0 || !b.contains(d))
      continue;
    acc(I128(a.lo) / d);
    acc(I128(a.hi) / d);
  }
  if (b.contains(0)) {
    acc(-1);
    acc(1);
  }
  if (!any)
    return Interval::bottom();
  return fitOrTop(qlo, qhi, W);
}

Interval divUInterval(const Interval &a, const Interval &b, unsigned W) {
  if (a.lo < 0 || b.lo < 0)
    return Interval::topFor(W);
  Interval out = Interval::bottom();
  if (b.contains(0)) {
    // x /u 0 = all-ones at W, i.e. -1 in the signed view.
    out.join(Interval::range(-1, -1, W), W);
  }
  if (b.hi >= 1) {
    std::int64_t dmin = std::max<std::int64_t>(b.lo, 1);
    out.join(Interval::range(a.lo / b.hi, a.hi / dmin, W), W);
  }
  return out;
}

Interval remSInterval(const Interval &a, const Interval &b, unsigned W) {
  I128 m = std::max(I128(a.lo) < 0 ? -I128(a.lo) : I128(a.lo),
                    I128(a.hi) < 0 ? -I128(a.hi) : I128(a.hi));
  // A provably nonzero divisor bounds |r| by max|d| - 1; x % 0 = x keeps
  // the dividend bound.
  if (!b.contains(0)) {
    I128 dm = std::max(I128(b.lo) < 0 ? -I128(b.lo) : I128(b.lo),
                       I128(b.hi) < 0 ? -I128(b.hi) : I128(b.hi));
    if (dm >= 1)
      m = std::min(m, dm - 1);
  }
  I128 lo = a.lo >= 0 ? 0 : -m;
  I128 hi = a.hi <= 0 ? 0 : m;
  return fitOrTop(lo, hi, W);
}

Interval remUInterval(const Interval &a, const Interval &b, unsigned W) {
  if (a.lo < 0 || b.lo < 0)
    return Interval::topFor(W);
  std::int64_t hi = a.hi; // x %u 0 = x
  if (!b.contains(0) && b.hi >= 1)
    hi = std::min(hi, b.hi - 1);
  return Interval::range(0, hi, W);
}

Interval shlInterval(const Interval &a, const Interval &k, unsigned W) {
  unsigned W0 = W; // shift width = operand-0 width = dst width
  bool oversize = k.lo < 0 || k.hi >= static_cast<std::int64_t>(W0);
  std::int64_t klo = std::max<std::int64_t>(k.lo, 0);
  std::int64_t khi = std::min<std::int64_t>(k.hi, W0 - 1);
  Interval out = Interval::bottom();
  if (oversize)
    out.join(Interval::range(0, 0, W), W);
  if (klo <= khi) {
    I128 c[4] = {I128(a.lo) << klo, I128(a.lo) << khi, I128(a.hi) << klo,
                 I128(a.hi) << khi};
    I128 lo = c[0], hi = c[0];
    for (int i = 1; i < 4; ++i) {
      lo = std::min(lo, c[i]);
      hi = std::max(hi, c[i]);
    }
    Interval span = fitOrTop(lo, hi, W);
    if (span.known() && span.lo >= 0)
      span.zeros |= lowMask(static_cast<unsigned>(klo));
    span.normalize(W);
    out.join(span, W);
  }
  return out.bot ? Interval::topFor(W) : out;
}

Interval shrLInterval(const Interval &a, const Interval &k, unsigned W) {
  unsigned W0 = W;
  bool oversize = k.lo < 0 || k.hi >= static_cast<std::int64_t>(W0);
  std::int64_t klo = std::max<std::int64_t>(k.lo, 0);
  std::int64_t khi = std::min<std::int64_t>(k.hi, W0 - 1);
  Interval out = Interval::bottom();
  if (oversize)
    out.join(Interval::range(0, 0, W), W);
  if (klo <= khi) {
    if (a.lo >= 0) {
      out.join(Interval::range(a.lo >> khi, a.hi >> klo, W), W);
    } else if (klo >= 1 && W0 - klo <= 63) {
      out.join(Interval::range(0, (std::int64_t(1) << (W0 - klo)) - 1, W), W);
    } else {
      return Interval::topFor(W);
    }
  }
  return out.bot ? Interval::topFor(W) : out;
}

Interval shrAInterval(const Interval &a, const Interval &k, unsigned W) {
  unsigned W0 = W;
  bool oversize = k.lo < 0 || k.hi >= static_cast<std::int64_t>(W0);
  std::int64_t klo = std::clamp<std::int64_t>(k.lo, 0, 63);
  std::int64_t khi = std::clamp<std::int64_t>(k.hi, 0, 63);
  if (oversize)
    khi = 63; // full sign fill
  if (klo > khi)
    klo = khi;
  // Arithmetic shift is monotone toward the sign value as k grows, so the
  // corner set {klo, khi} x {a.lo, a.hi} bounds every intermediate shift.
  std::int64_t c[4] = {a.lo >> klo, a.lo >> khi, a.hi >> klo, a.hi >> khi};
  std::int64_t lo = *std::min_element(c, c + 4);
  std::int64_t hi = *std::max_element(c, c + 4);
  return Interval::range(lo, hi, W);
}

Interval andInterval(const Interval &a, const Interval &b, unsigned W) {
  if (a.lo < 0 && b.lo < 0)
    return Interval::topFor(W); // -2 & -3 = -4: no simple bound
  std::int64_t hi = INT64_MAX;
  std::uint64_t zeros = 0;
  if (a.lo >= 0) {
    hi = std::min(hi, a.hi);
    zeros |= a.zeros;
  }
  if (b.lo >= 0) {
    hi = std::min(hi, b.hi);
    zeros |= b.zeros;
  }
  Interval out = Interval::range(0, hi, W);
  out.zeros = zeros;
  out.normalize(W);
  return out;
}

Interval orXorInterval(const Interval &a, const Interval &b, unsigned W) {
  if (a.lo < 0 || b.lo < 0)
    return Interval::topFor(W);
  unsigned bits = std::max(bitsFor(a.hi), bitsFor(b.hi));
  if (bits > 62)
    return Interval::topFor(W);
  Interval out =
      Interval::range(0, (std::int64_t(1) << bits) - 1, W);
  out.zeros = a.zeros & b.zeros;
  out.normalize(W);
  return out;
}

bool isCompare(Opcode op) {
  switch (op) {
  case Opcode::CmpEq:
  case Opcode::CmpNe:
  case Opcode::CmpLtS:
  case Opcode::CmpLtU:
  case Opcode::CmpLeS:
  case Opcode::CmpLeU:
    return true;
  default:
    return false;
  }
}

// Tri-state compare decision: 1 = always true, 0 = always false, -1 =
// undecided.  Unsigned compares decide when signs are known (a negative
// pattern is unsigned-larger than any non-negative one of the same width).
int decideCmp(Opcode op, const Interval &a, const Interval &b) {
  if (!a.known() || !b.known())
    return -1;
  switch (op) {
  case Opcode::CmpEq:
    if (a.isConst() && b.isConst() && a.lo == b.lo)
      return 1;
    if (a.hi < b.lo || a.lo > b.hi)
      return 0;
    return -1;
  case Opcode::CmpNe:
    if (a.isConst() && b.isConst() && a.lo == b.lo)
      return 0;
    if (a.hi < b.lo || a.lo > b.hi)
      return 1;
    return -1;
  case Opcode::CmpLtS:
    if (a.hi < b.lo)
      return 1;
    if (a.lo >= b.hi)
      return 0;
    return -1;
  case Opcode::CmpLeS:
    if (a.hi <= b.lo)
      return 1;
    if (a.lo > b.hi)
      return 0;
    return -1;
  case Opcode::CmpLtU: {
    bool aNeg = a.hi < 0, aPos = a.lo >= 0;
    bool bNeg = b.hi < 0, bPos = b.lo >= 0;
    if (aPos && bNeg)
      return 1; // a's pattern < 2^(W-1) <= b's pattern
    if (aNeg && bPos)
      return 0;
    if ((aPos && bPos) || (aNeg && bNeg))
      return decideCmp(Opcode::CmpLtS, a, b);
    return -1;
  }
  case Opcode::CmpLeU: {
    bool aNeg = a.hi < 0, aPos = a.lo >= 0;
    bool bNeg = b.hi < 0, bPos = b.lo >= 0;
    if (aPos && bNeg)
      return 1;
    if (aNeg && bPos)
      return 0;
    if ((aPos && bPos) || (aNeg && bNeg))
      return decideCmp(Opcode::CmpLeS, a, b);
    return -1;
  }
  default:
    return -1;
  }
}

// ---------------------------------------------------------------------------
// Analysis context.

struct FnCtx {
  const ir::Function &fn;
  unsigned fnIndex = 0;
  std::vector<unsigned> widths;  // per vreg: declared width
  std::vector<bool> isParam;     // per vreg
};

FnCtx makeFnCtx(const ir::Module &module, const ir::Function &fn) {
  FnCtx fc{fn, module.indexOf(&fn), {}, {}};
  fc.widths.assign(fn.vregCount(), 1);
  fc.isParam.assign(fn.vregCount(), false);
  for (const auto &p : fn.params()) {
    if (p.id < fc.widths.size()) {
      fc.widths[p.id] = p.width;
      fc.isParam[p.id] = true;
    }
  }
  for (const auto &block : fn.blocks())
    for (const auto &instr : block->instrs()) {
      if (instr->dst && instr->dst->id < fc.widths.size())
        fc.widths[instr->dst->id] = instr->dst->width;
      for (const auto &op : instr->operands)
        if (op.isReg() && op.reg().id < fc.widths.size() &&
            fc.widths[op.reg().id] == 1)
          fc.widths[op.reg().id] = op.reg().width;
    }
  return fc;
}

// What branch refinement needs to know about a CondBr block, all of it
// fixed by the block's instructions: the in-block compare that defines the
// condition and, per compare operand, whether that reg still holds the
// compared value at the branch (`refine`) and the in-block reg-reg Add/Sub
// defining it whose operands are not rewritten afterwards (`sum`, the
// expression an ExprFact records).
struct BranchPlan {
  const ir::Instr *cmp = nullptr;
  bool refine[2] = {false, false};
  const ir::Instr *sum[2] = {nullptr, nullptr};
};

// The solver's per-function tables, built once per analyzeRanges and
// reused by every round of the module fixpoint.
struct FnPlan {
  std::vector<std::vector<unsigned>> liveIn; // per block id: ascending vregs
  std::vector<BranchPlan> branches;          // per block id
  std::vector<ir::BasicBlock *> rpo;
  ir::DataflowOrder order;
  // The module summaries a solve reads: the memories the function loads,
  // the channels it receives on and the functions (by module index) whose
  // returns it uses.  Ascending.
  std::vector<unsigned> loads, recvs, callees;
};

bool isSumOfRegs(const ir::Instr &instr) {
  return (instr.op == Opcode::Add || instr.op == Opcode::Sub) &&
         instr.operands.size() == 2 && instr.operands[0].isReg() &&
         instr.operands[1].isReg();
}

BranchPlan planBranch(const ir::BasicBlock &block) {
  BranchPlan plan;
  const ir::Instr *term = block.terminator();
  if (!term || term->op != Opcode::CondBr || term->operands[0].isImm())
    return plan;
  // Index of each vreg's last write in the block.
  std::map<unsigned, std::size_t> lastDef;
  const auto &instrs = block.instrs();
  for (std::size_t i = 0; i < instrs.size(); ++i)
    if (instrs[i]->dst)
      lastDef[instrs[i]->dst->id] = i;
  auto dit = lastDef.find(term->operands[0].reg().id);
  if (dit == lastDef.end())
    return plan;
  const ir::Instr *cmp = instrs[dit->second].get();
  if (!isCompare(cmp->op) || cmp->operands.size() != 2)
    return plan;
  plan.cmp = cmp;
  for (int side = 0; side < 2; ++side) {
    const ir::Operand &op = cmp->operands[side];
    if (!op.isReg())
      continue;
    auto rit = lastDef.find(op.reg().id);
    if (rit != lastDef.end() && rit->second > dit->second)
      continue; // rewritten after the compare read it
    plan.refine[side] = true;
    if (rit == lastDef.end() || !isSumOfRegs(*instrs[rit->second]))
      continue;
    const ir::Instr *def = instrs[rit->second].get();
    bool stable = true;
    for (const auto &sumOp : def->operands) {
      auto oit = lastDef.find(sumOp.reg().id);
      if (oit != lastDef.end() && oit->second >= rit->second)
        stable = false; // operand rewritten at/after the definition
    }
    if (stable)
      plan.sum[side] = def;
  }
  return plan;
}

FnPlan planFunction(const ir::Module &module, const ir::Function &fn) {
  FnPlan plan;
  plan.liveIn.resize(fn.blockIdCount());
  plan.branches.resize(fn.blockIdCount());
  ir::Liveness live(fn);
  std::set<unsigned> loads, recvs, callees;
  for (const auto &block : fn.blocks()) {
    plan.liveIn[block->id()] = live.liveIn(block.get());
    plan.branches[block->id()] = planBranch(*block);
    for (const auto &instr : block->instrs()) {
      if (instr->op == Opcode::Load)
        loads.insert(instr->memId);
      else if (instr->op == Opcode::ChanRecv)
        recvs.insert(instr->chanId);
      else if (instr->op == Opcode::Call)
        if (const ir::Function *callee = module.findFunction(instr->callee))
          callees.insert(module.indexOf(callee));
    }
  }
  plan.rpo = fn.reversePostOrder();
  plan.order = ir::dataflowOrder(fn);
  plan.loads.assign(loads.begin(), loads.end());
  plan.recvs.assign(recvs.begin(), recvs.end());
  plan.callees.assign(callees.begin(), callees.end());
  return plan;
}

// One value the collection sweep of a function adds to a module summary:
// a stored value to a memory's, a sent value to a channel's, a returned
// value to the function's.
struct SummaryWrite {
  enum Kind : unsigned char { Mem, Chan, Ret } kind;
  unsigned id; // mem id, chan id or function index
  Interval value;
};

// Module-level summaries: what every load/receive/call may observe.  The
// `writes` log is only attached during the final collection sweep so the
// summaries reflect converged states, not solver intermediates.
struct Ctx {
  const ir::Module &module;
  std::vector<Interval> memCur, chanCur, retCur;
  std::vector<SummaryWrite> *writes = nullptr;
};

std::vector<Interval> seedMemSummaries(const ir::Module &module) {
  std::vector<Interval> mems;
  mems.reserve(module.mems().size());
  for (const auto &mem : module.mems()) {
    Interval iv = Interval::bottom();
    for (const auto &init : mem.init)
      iv.join(Interval::constant(init), mem.width);
    if (mem.init.size() < mem.depth)
      iv.join(Interval::constant(BitVector(std::max(1u, mem.width))),
              mem.width); // zero-initialized remainder
    mems.push_back(iv);
  }
  return mems;
}

// Working storage reused by every block transfer of a solve (or every
// block of a replay), so that executing an instruction allocates nothing.
// `regs` is indexed by vreg: a transfer loads its block's live-in
// intervals, then writes every value the block computes.  Any other entry
// is stale and, by liveness, never read.
struct Scratch {
  std::vector<Interval> regs;
  std::vector<ValueState::ExprFact> exprs;
  std::vector<ValueState::ExprFact> edgeExprs; // one CondBr edge's copy
  std::vector<Interval> ops; // operand intervals of the current instruction
  std::uint64_t transfers = 0;
  std::uint64_t copies = 0; // intervals loaded, packed and joined
};

void loadState(Scratch &s, const ValueState &in, std::size_t vregs) {
  if (s.regs.size() < vregs)
    s.regs.resize(vregs);
  for (const auto &r : in.regs)
    s.regs[r.vreg] = r.iv;
  s.exprs = in.exprs;
  s.copies += in.regs.size();
}

// Overwrite `out` with the state `s` hands to a block whose live-in vregs
// are `live`, reusing `out`'s storage.
void packState(Scratch &s, const std::vector<unsigned> &live,
               const std::vector<ValueState::ExprFact> &exprs,
               ValueState &out) {
  out.regs.clear();
  out.regs.reserve(live.size());
  for (unsigned v : live)
    out.regs.push_back({v, s.regs[v]});
  out.exprs = exprs;
  s.copies += live.size();
}

Interval operandInterval(const std::vector<Interval> &regs,
                         const ir::Operand &op) {
  if (op.isImm())
    return Interval::constant(op.imm());
  unsigned id = op.reg().id;
  if (id >= regs.size())
    return Interval::topFor(op.reg().width);
  return regs[id];
}

void killFacts(std::vector<ValueState::ExprFact> &exprs, unsigned reg) {
  std::erase_if(exprs, [&](const ValueState::ExprFact &f) {
    return f.a == reg || f.b == reg;
  });
}

// Evaluate one instruction against the scratch state, leaving its operand
// intervals (the pre-write view) in `s.ops` and recording side effects into
// the ctx sinks when attached.
void execInstr(const FnCtx &fc, Ctx &ctx, const ir::Instr &instr,
               Scratch &s) {
  s.ops.clear();
  bool anyBot = false;
  for (const auto &op : instr.operands) {
    s.ops.push_back(operandInterval(s.regs, op));
    anyBot = anyBot || s.ops.back().bot;
  }
  const std::vector<Interval> &ops = s.ops;

  // Side effects (recorded only when sinks are attached and the value can
  // actually flow — a bottom operand means the instruction never executes).
  switch (instr.op) {
  case Opcode::Store:
    if (ctx.writes && !anyBot && instr.memId < ctx.module.mems().size()) {
      unsigned mw = ctx.module.mems()[instr.memId].width;
      ctx.writes->push_back(
          {SummaryWrite::Mem, instr.memId,
           resizeInterval(ops[1], instr.operands[1].width(), mw)});
    }
    break;
  case Opcode::ChanSend:
    if (ctx.writes && !anyBot && instr.chanId < ctx.module.chans().size()) {
      unsigned cw = ctx.module.chans()[instr.chanId].width;
      ctx.writes->push_back(
          {SummaryWrite::Chan, instr.chanId,
           resizeInterval(ops[0], instr.operands[0].width(), cw)});
    }
    break;
  case Opcode::Ret:
    if (ctx.writes && !anyBot && !instr.operands.empty() &&
        fc.fn.returnWidth() != 0 &&
        fc.fnIndex < ctx.module.functions().size()) {
      unsigned rw = fc.fn.returnWidth();
      ctx.writes->push_back(
          {SummaryWrite::Ret, fc.fnIndex,
           resizeInterval(ops[0], instr.operands[0].width(), rw)});
    }
    break;
  default:
    break;
  }

  if (!instr.dst)
    return;
  unsigned dstId = instr.dst->id;
  unsigned W = instr.dst->width;
  Interval iv;

  if (anyBot) {
    iv = Interval::bottom();
  } else {
    // Widths above 64 bits are not tracked.
    bool anyWide = W > 64;
    for (const auto &o : ops)
      if (o.wide)
        anyWide = true;
    auto wideOr = [&](auto compute) {
      return anyWide ? Interval::topFor(W) : compute();
    };
    switch (instr.op) {
    case Opcode::Const:
      iv = Interval::constant(instr.constValue);
      break;
    case Opcode::Copy:
      iv = ops[0];
      iv.normalize(W);
      break;
    case Opcode::Add:
      iv = wideOr([&] { return addSub(false, ops[0], ops[1], W); });
      break;
    case Opcode::Sub:
      iv = wideOr([&] { return addSub(true, ops[0], ops[1], W); });
      break;
    case Opcode::Mul:
      iv = wideOr([&] { return mulInterval(ops[0], ops[1], W); });
      break;
    case Opcode::DivS:
      iv = wideOr([&] { return divSInterval(ops[0], ops[1], W); });
      break;
    case Opcode::DivU:
      iv = wideOr([&] { return divUInterval(ops[0], ops[1], W); });
      break;
    case Opcode::RemS:
      iv = wideOr([&] { return remSInterval(ops[0], ops[1], W); });
      break;
    case Opcode::RemU:
      iv = wideOr([&] { return remUInterval(ops[0], ops[1], W); });
      break;
    case Opcode::And:
      iv = wideOr([&] { return andInterval(ops[0], ops[1], W); });
      break;
    case Opcode::Or:
    case Opcode::Xor:
      iv = wideOr([&] { return orXorInterval(ops[0], ops[1], W); });
      break;
    case Opcode::Not:
      iv = wideOr([&] {
        return fitOrTop(-I128(ops[0].hi) - 1, -I128(ops[0].lo) - 1, W);
      });
      break;
    case Opcode::Neg:
      iv = wideOr(
          [&] { return fitOrTop(-I128(ops[0].hi), -I128(ops[0].lo), W); });
      break;
    case Opcode::Shl:
      iv = wideOr([&] { return shlInterval(ops[0], ops[1], W); });
      break;
    case Opcode::ShrL:
      iv = wideOr([&] { return shrLInterval(ops[0], ops[1], W); });
      break;
    case Opcode::ShrA:
      iv = wideOr([&] { return shrAInterval(ops[0], ops[1], W); });
      break;
    case Opcode::CmpEq:
    case Opcode::CmpNe:
    case Opcode::CmpLtS:
    case Opcode::CmpLtU:
    case Opcode::CmpLeS:
    case Opcode::CmpLeU: {
      int verdict = decideCmp(instr.op, ops[0], ops[1]);
      // Width-1 true is the all-ones pattern, i.e. -1 in the signed view.
      if (verdict == 1)
        iv = Interval::range(-1, -1, 1);
      else if (verdict == 0)
        iv = Interval::range(0, 0, 1);
      else
        iv = Interval::topFor(1);
      break;
    }
    case Opcode::Mux:
      if (!ops[0].mayBeZero()) {
        iv = ops[1];
      } else if (!ops[0].mayBeNonZero()) {
        iv = ops[2];
      } else {
        iv = ops[1];
        iv.join(ops[2], W);
      }
      iv.normalize(W);
      break;
    case Opcode::Trunc:
      iv = truncInterval(ops[0], W);
      break;
    case Opcode::ZExt:
      iv = zextInterval(ops[0], instr.operands[0].width(), W);
      break;
    case Opcode::SExt:
      iv = ops[0];
      if (iv.known() && iv.lo >= 0 && W <= 64)
        iv.zeros |= lowMask(std::min(W, 64u)) &
                    ~lowMask(instr.operands[0].width());
      iv.normalize(W);
      break;
    case Opcode::Load:
      iv = instr.memId < ctx.memCur.size()
               ? resizeInterval(ctx.memCur[instr.memId],
                                ctx.module.mems()[instr.memId].width, W)
               : Interval::topFor(W);
      break;
    case Opcode::ChanRecv:
      iv = instr.chanId < ctx.chanCur.size()
               ? resizeInterval(ctx.chanCur[instr.chanId],
                                ctx.module.chans()[instr.chanId].width, W)
               : Interval::topFor(W);
      break;
    case Opcode::Call: {
      const ir::Function *callee = ctx.module.findFunction(instr.callee);
      if (callee && callee->returnWidth() != 0) {
        unsigned idx = ctx.module.indexOf(callee);
        iv = idx < ctx.retCur.size()
                 ? resizeInterval(ctx.retCur[idx], callee->returnWidth(), W)
                 : Interval::topFor(W);
      } else {
        iv = Interval::topFor(W);
      }
      break;
    }
    default:
      iv = Interval::topFor(W);
      break;
    }
  }

  // Relational refinement: a planted `op(a, b) in range` fact bounds a
  // recomputation of the same expression from the same (unmodified) regs.
  if (isSumOfRegs(instr)) {
    unsigned a = instr.operands[0].reg().id;
    unsigned b = instr.operands[1].reg().id;
    for (const auto &f : s.exprs)
      if (f.op == instr.op && f.a == a && f.b == b) {
        Interval tmp = iv;
        if (tmp.meet(f.range))
          iv = tmp;
        break;
      }
  }

  killFacts(s.exprs, dstId);
  if (dstId < s.regs.size())
    s.regs[dstId] = iv;
}

// ---------------------------------------------------------------------------
// Branch refinement.

// Saturating endpoint nudges; `empty` flags an infeasible constraint.
std::int64_t decOr(std::int64_t v, bool &empty) {
  if (v == INT64_MIN) {
    empty = true;
    return v;
  }
  return v - 1;
}
std::int64_t incOr(std::int64_t v, bool &empty) {
  if (v == INT64_MAX) {
    empty = true;
    return v;
  }
  return v + 1;
}

struct Refinement {
  Interval a, b; // constraints to meet into each side (wide = no info)
  bool empty = false;
};

Refinement refineBounds(Opcode op, bool outcome, const Interval &av,
                        const Interval &bv, unsigned wa, unsigned wb) {
  Refinement r;
  r.a = Interval::topFor(65); // wide = "no constraint" (meet is identity)
  r.b = r.a;
  (void)wa;
  if (!av.known() || !bv.known())
    return r;
  auto rangeA = [&](std::int64_t lo, std::int64_t hi) {
    r.a = Interval::range(lo, hi, 64);
  };
  auto rangeB = [&](std::int64_t lo, std::int64_t hi) {
    r.b = Interval::range(lo, hi, 64);
  };
  std::int64_t MIN = INT64_MIN, MAX = INT64_MAX;
  switch (op) {
  case Opcode::CmpLtS:
    if (outcome) {
      rangeA(MIN, decOr(bv.hi, r.empty));
      rangeB(incOr(av.lo, r.empty), MAX);
    } else {
      rangeA(bv.lo, MAX);
      rangeB(MIN, av.hi);
    }
    break;
  case Opcode::CmpLeS:
    if (outcome) {
      rangeA(MIN, bv.hi);
      rangeB(av.lo, MAX);
    } else {
      rangeA(incOr(bv.lo, r.empty), MAX);
      rangeB(MIN, decOr(av.hi, r.empty));
    }
    break;
  case Opcode::CmpLtU:
    if (outcome) {
      // a <u b: when b is provably non-negative, a's pattern is below
      // b.hi, hence a in [0, b.hi - 1] regardless of a's prior sign.
      if (bv.lo >= 0)
        rangeA(0, decOr(bv.hi, r.empty));
      if (av.lo >= 0)
        rangeB(incOr(av.lo, r.empty), MAX);
    } else if (av.lo >= 0 && bv.lo >= 0) {
      rangeA(bv.lo, MAX);
      rangeB(0, av.hi);
    }
    break;
  case Opcode::CmpLeU:
    if (outcome) {
      if (bv.lo >= 0)
        rangeA(0, bv.hi);
      if (av.lo >= 0)
        rangeB(av.lo, MAX);
    } else if (av.lo >= 0 && bv.lo >= 0) {
      rangeA(incOr(bv.lo, r.empty), MAX);
      rangeB(0, decOr(av.hi, r.empty));
    }
    break;
  case Opcode::CmpEq:
    if (outcome) {
      r.a = bv;
      r.b = av;
    } else {
      // Only endpoint exclusions are expressible in intervals.
      if (bv.isConst()) {
        std::int64_t c = bv.lo;
        if (av.isConst() && av.lo == c)
          r.empty = true;
        else if (av.lo == c)
          rangeA(incOr(av.lo, r.empty), MAX);
        else if (av.hi == c)
          rangeA(MIN, decOr(av.hi, r.empty));
      }
      if (av.isConst()) {
        std::int64_t c = av.lo;
        if (bv.lo == c && !bv.isConst())
          rangeB(incOr(bv.lo, r.empty), MAX);
        else if (bv.hi == c && !bv.isConst())
          rangeB(MIN, decOr(bv.hi, r.empty));
      }
    }
    break;
  case Opcode::CmpNe:
    return refineBounds(Opcode::CmpEq, !outcome, av, bv, wa, wb);
  default:
    break;
  }
  (void)wb;
  return r;
}

// Plant (or tighten) the ExprFact "sum(a, b) in iv" for a refined reg
// defined by the reg-reg Add/Sub `sum`.
void plantExprFact(const ir::Instr &sum, const Interval &iv,
                   std::vector<ValueState::ExprFact> &exprs) {
  if (!iv.known())
    return;
  unsigned a = sum.operands[0].reg().id;
  unsigned b = sum.operands[1].reg().id;
  for (auto &f : exprs)
    if (f.op == sum.op && f.a == a && f.b == b) {
      f.range.meet(iv);
      if (f.range.bot)
        f.range = iv;
      return;
    }
  exprs.push_back({sum.op, a, b, iv});
}

// Refine `regs` and `exprs` along one CondBr edge.  Returns false when the
// edge is infeasible under the refined constraints.
bool refineEdge(const FnCtx &fc, const BranchPlan &plan,
                std::vector<Interval> &regs,
                std::vector<ValueState::ExprFact> &exprs,
                const ir::Instr &term, bool takeTrue) {
  const ir::Operand &cond = term.operands[0];
  if (cond.isImm())
    return takeTrue == !cond.imm().isZero();
  unsigned c = cond.reg().id;
  if (c < regs.size()) {
    Interval &cv = regs[c];
    if (cv.known()) {
      if (takeTrue) {
        if (cv.lo == 0 && cv.hi == 0)
          return false;
        if (cond.reg().width == 1) {
          if (!cv.meet(Interval::range(-1, -1, 1)))
            return false;
        } else {
          // Trim a zero endpoint (interval domains cannot punch holes).
          if (cv.lo == 0)
            cv.lo = 1;
          else if (cv.hi == 0)
            cv.hi = -1;
        }
      } else {
        if (!cv.meet(Interval::range(0, 0, cond.reg().width)))
          return false;
      }
    }
  }
  const ir::Instr *def = plan.cmp;
  if (!def)
    return true;
  Interval av = operandInterval(regs, def->operands[0]);
  Interval bv = operandInterval(regs, def->operands[1]);
  Refinement r = refineBounds(def->op, takeTrue, av, bv,
                              def->operands[0].width(),
                              def->operands[1].width());
  if (r.empty)
    return false;
  for (int side = 0; side < 2; ++side) {
    const Interval &bound = side == 0 ? r.a : r.b;
    if (!plan.refine[side] || bound.wide)
      continue;
    unsigned reg = def->operands[side].reg().id;
    if (reg >= regs.size())
      continue;
    if (!regs[reg].meet(bound))
      return false;
    regs[reg].normalize(fc.widths[reg]);
    if (regs[reg].bot)
      return false;
    if (plan.sum[side])
      plantExprFact(*plan.sum[side], regs[reg], exprs);
  }
  return true;
}

// ---------------------------------------------------------------------------
// Block transfer and state join.

using EdgeStates = ir::EdgeStates<ValueState>;

void transferBlock(const FnCtx &fc, const FnPlan &plan, Ctx &ctx, Scratch &s,
                   const ir::BasicBlock &block, const ValueState &in,
                   EdgeStates &out) {
  ++s.transfers;
  loadState(s, in, fc.widths.size());
  for (const auto &instr : block.instrs())
    execInstr(fc, ctx, *instr, s);
  const ir::Instr *term = block.terminator();
  if (!term)
    return;
  if (term->op == Opcode::Br) {
    if (term->target0) {
      packState(s, plan.liveIn[term->target0->id()], s.exprs, out.state[0]);
      out.feasible[0] = true;
    }
    return;
  }
  if (term->op != Opcode::CondBr)
    return; // Ret: no successors
  Interval cv = operandInterval(s.regs, term->operands[0]);
  bool canTrue = !cv.bot && cv.mayBeNonZero();
  bool canFalse = !cv.bot && cv.mayBeZero();
  const BranchPlan &bp = plan.branches[block.id()];
  // refineEdge narrows at most the condition and the two compared regs in
  // place: save them, and put them back before the other edge.
  std::array<std::pair<unsigned, Interval>, 3> saved;
  std::size_t nSaved = 0;
  auto save = [&](const ir::Operand &op) {
    if (op.isReg() && op.reg().id < s.regs.size())
      saved[nSaved++] = {op.reg().id, s.regs[op.reg().id]};
  };
  save(term->operands[0]);
  if (bp.cmp) {
    save(bp.cmp->operands[0]);
    save(bp.cmp->operands[1]);
  }
  for (int e = 0; e < 2; ++e) {
    bool take = e == 0;
    const ir::BasicBlock *target = take ? term->target0 : term->target1;
    if (!target || !(take ? canTrue : canFalse))
      continue;
    s.edgeExprs = s.exprs;
    if (refineEdge(fc, bp, s.regs, s.edgeExprs, *term, take)) {
      packState(s, plan.liveIn[target->id()], s.edgeExprs, out.state[e]);
      out.feasible[e] = true;
    }
    for (std::size_t k = 0; k < nSaved; ++k)
      s.regs[saved[k].first] = saved[k].second;
  }
}

// How many times one register's interval may change at a loop header
// before widening blows it to the width's extremes.  The budget is per
// register, not per header: a header hosting a diverging accumulator
// still receives a changing join every round, and a shared counter would
// spend the slowly-converging loop counter's budget on the accumulator's
// churn, widening the counter just before it settles.
constexpr unsigned kWidenPerReg = 48;

// Both states belong to one block, so they hold the same vregs in the same
// order.  `growth` counts, per position, the changes made at widening
// points.
bool joinState(const FnCtx &fc, Scratch &s, ValueState &into,
               const ValueState &from, bool widen,
               std::vector<unsigned> *growth) {
  assert(into.regs.size() == from.regs.size());
  if (growth && growth->size() < into.regs.size())
    growth->resize(into.regs.size(), 0);
  s.copies += into.regs.size();
  bool changed = false;
  for (std::size_t i = 0; i < into.regs.size(); ++i) {
    Interval &cur = into.regs[i].iv;
    unsigned w = fc.widths[into.regs[i].vreg];
    Interval j = cur;
    j.join(from.regs[i].iv, w);
    if (widen && growth && (*growth)[i] >= kWidenPerReg && j.known() &&
        cur.known()) {
      if (j.lo < cur.lo)
        j.lo = Interval::minSigned(w);
      if (j.hi > cur.hi)
        j.hi = Interval::maxSigned(w);
      j.normalize(w);
    }
    if (!sameInterval(j, cur)) {
      cur = j;
      changed = true;
      if (growth)
        ++(*growth)[i];
    }
  }
  // Keep only relational facts common to both paths, with joined ranges.
  // At a widening point a fact whose range is still moving is dropped
  // instead of rejoined — fact chains are as unbounded as the interval
  // chains they mirror, and a dropped fact can never reappear, so this
  // preserves termination.
  std::vector<ValueState::ExprFact> merged;
  for (const auto &f : into.exprs) {
    for (const auto &g : from.exprs)
      if (f.op == g.op && f.a == g.a && f.b == g.b) {
        ValueState::ExprFact h = f;
        unsigned w = f.a < fc.widths.size() ? fc.widths[f.a] : 64;
        h.range.join(g.range, w);
        if (widen && !sameInterval(h.range, f.range))
          break; // still growing at a widening point: drop it
        merged.push_back(h);
        break;
      }
  }
  if (merged.size() != into.exprs.size()) {
    changed = true;
  } else {
    for (std::size_t i = 0; i < merged.size(); ++i)
      if (!sameInterval(merged[i].range, into.exprs[i].range)) {
        changed = true;
        break;
      }
  }
  into.exprs = std::move(merged);
  return changed;
}

// The entry block's state: parameters unknown, every other vreg at its
// zero reset value.
ValueState entryState(const FnCtx &fc, const std::vector<unsigned> &live) {
  ValueState st;
  st.regs.reserve(live.size());
  for (unsigned v : live) {
    unsigned w = fc.widths[v];
    st.regs.push_back({v, fc.isParam[v]
                              ? Interval::topFor(w)
                              : Interval::constant(BitVector(std::max(1u, w)))});
  }
  return st;
}

ValueState topState(const FnCtx &fc, const std::vector<unsigned> &live) {
  ValueState st;
  st.regs.reserve(live.size());
  for (unsigned v : live)
    st.regs.push_back({v, Interval::topFor(fc.widths[v])});
  return st;
}

bool sameRegs(const ValueState &a, const ValueState &b) {
  if (a.regs.size() != b.regs.size())
    return false;
  for (std::size_t i = 0; i < a.regs.size(); ++i)
    if (!sameInterval(a.regs[i].iv, b.regs[i].iv))
      return false;
  return true;
}

// ---------------------------------------------------------------------------
// Per-function analysis.

// A function's block-entry states by block id; a block without one is
// range-unreachable.
using BlockStates = std::vector<std::optional<ValueState>>;

bool sameStates(const BlockStates &a, const BlockStates &b) {
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].has_value() != b[i].has_value())
      return false;
    if (a[i] && !sameRegs(*a[i], *b[i]))
      return false;
  }
  return true;
}

// Solve one function against the summaries in `ctx`: store its
// FunctionRanges in `out`, and replace `writes` with what its converged
// states add to the module summaries.
void analyzeFunction(const FnCtx &fc, const FnPlan &plan, Ctx &ctx,
                     Scratch &s, RangeAnalysis &out,
                     std::vector<SummaryWrite> &writes) {
  writes.clear();
  const ir::Function &fn = fc.fn;
  if (!fn.entry())
    return;
  const std::vector<unsigned> &entryLive = plan.liveIn[fn.entry()->id()];

  auto transfer = [&](const ir::BasicBlock &b, const ValueState &in,
                      EdgeStates &edges) {
    transferBlock(fc, plan, ctx, s, b, in, edges);
  };
  // Per-register widening budgets of each block's in-state, by block id.
  // The solver's own `widenAfter` only arms the header widen flag; the
  // per-register counters decide which registers actually widen once it
  // is armed.
  std::vector<std::vector<unsigned>> growth(fn.blockIdCount());
  auto join = [&](const ir::BasicBlock &b, ValueState &into,
                  const ValueState &from, bool widen) {
    return joinState(fc, s, into, from, widen,
                     widen ? &growth[b.id()] : nullptr);
  };
  unsigned maxRounds = kWidenPerReg +
                       2 * static_cast<unsigned>(fn.blocks().size()) + 96;
  auto res =
      ir::solveForwardDataflow(fn, plan.order, entryState(fc, entryLive),
                               transfer, join, /*widenAfter=*/1, maxRounds);
  BlockStates &in = res.in;
  if (!res.converged) {
    // Should not happen with widening; saturate every block for soundness.
    for (auto &st : in)
      st.reset();
    for (ir::BasicBlock *b : plan.rpo)
      in[b->id()].emplace(topState(fc, plan.liveIn[b->id()]));
  } else {
    // Narrowing sweeps: recompute each in-state as the join of its feasible
    // predecessor edges (Jacobi style).  Starting from the solver's
    // post-fixpoint, each application of the monotone transfer descends
    // toward (never below) the least fixpoint, so any number of passes is
    // sound; iterate until stable or a small cap.
    BlockStates next(in.size());
    EdgeStates edges;
    for (int pass = 0; pass < 8; ++pass) {
      for (auto &st : next)
        st.reset();
      next[fn.entry()->id()].emplace(entryState(fc, entryLive));
      for (ir::BasicBlock *b : plan.rpo) {
        const std::optional<ValueState> &st = in[b->id()];
        if (!st)
          continue;
        edges.feasible[0] = edges.feasible[1] = false;
        transfer(*b, *st, edges);
        ir::Successors succs = b->successors();
        for (std::size_t i = 0; i < succs.size(); ++i) {
          if (!edges.feasible[i])
            continue;
          std::optional<ValueState> &slot = next[succs[i]->id()];
          if (!slot)
            slot.emplace(std::move(edges.state[i]));
          else
            joinState(fc, s, *slot, edges.state[i], false, nullptr);
        }
      }
      bool same = sameStates(next, in);
      std::swap(in, next);
      if (same)
        break;
    }
  }

  // Final collection sweep: record side-effect summaries from converged
  // states, accumulate per-vreg facts, and decide branches.
  ctx.writes = &writes;
  FunctionRanges fr;

  // Per vreg: the union of every write, from the zero reset value for
  // non-parameters.
  const std::size_t vregs = fc.widths.size();
  std::vector<Interval> acc(vregs);
  for (std::size_t i = 0; i < vregs; ++i)
    if (!fc.isParam[i])
      acc[i] = Interval::constant(BitVector(std::max(1u, fc.widths[i])));

  for (ir::BasicBlock *b : plan.rpo) {
    const std::optional<ValueState> &st = in[b->id()];
    if (!st)
      continue;
    loadState(s, *st, vregs);
    for (const auto &instr : b->instrs()) {
      execInstr(fc, ctx, *instr, s);
      if (instr->dst) {
        unsigned id = instr->dst->id;
        acc[id].join(s.regs[id], fc.widths[id]);
      } else if (instr->op == Opcode::CondBr && instr->target0 &&
                 instr->target1) {
        Interval cv = operandInterval(s.regs, instr->operands[0]);
        if (cv.known()) {
          if (!cv.contains(0))
            fr.decided[instr.get()] = true;
          else if (cv.isConst())
            fr.decided[instr.get()] = false;
        }
      }
    }
  }
  ctx.writes = nullptr;
  for (ir::BasicBlock *b : plan.rpo)
    if (in[b->id()])
      fr.entry.emplace(b, std::move(*in[b->id()]));

  // Only claim facts for vregs written exclusively by reachable code with
  // representable intervals: parameters and wide values get no claim.
  for (std::size_t i = 0; i < vregs; ++i)
    if (!fc.isParam[i] && acc[i].known())
      fr.facts.vregs.emplace_hint(fr.facts.vregs.end(),
                                  static_cast<unsigned>(i),
                                  opt::IntervalFact{acc[i].lo, acc[i].hi});

  out.functions.insert_or_assign(&fn, std::move(fr));
}

// Join `next` into `cur`, setting `grew[i]` for each summary that changed;
// returns whether any did.
bool growSummaries(std::vector<Interval> &cur, const std::vector<Interval> &next,
                   const std::vector<unsigned> &widths, bool widenToTop,
                   std::vector<char> &grew) {
  grew.assign(cur.size(), 0);
  bool changed = false;
  for (std::size_t i = 0; i < cur.size() && i < next.size(); ++i) {
    Interval j = cur[i];
    j.join(next[i], widths[i]);
    if (!sameInterval(j, cur[i])) {
      cur[i] = widenToTop ? Interval::topFor(widths[i]) : j;
      grew[i] = 1;
      changed = true;
    }
  }
  return changed;
}

// Raise every summary to top, marking in `grew` the ones that changed.
void saturateSummaries(std::vector<Interval> &cur,
                       const std::vector<unsigned> &widths,
                       std::vector<char> &grew) {
  for (std::size_t i = 0; i < cur.size(); ++i) {
    Interval top = Interval::topFor(widths[i]);
    if (!sameInterval(cur[i], top)) {
      cur[i] = top;
      grew[i] = 1;
    }
  }
}

bool readsGrown(const std::vector<unsigned> &reads,
                const std::vector<char> &grew) {
  for (unsigned id : reads)
    if (id < grew.size() && grew[id])
      return true;
  return false;
}

// Replay `block` from its entry state `in`, handing each instruction to
// `hook` with the operand intervals in force just before it executes.
template <class Hook>
void replay(const FnCtx &fc, Ctx &ctx, Scratch &s, const ValueState &in,
            const ir::BasicBlock &block, const Hook &hook) {
  loadState(s, in, fc.widths.size());
  for (const auto &instr : block.instrs()) {
    execInstr(fc, ctx, *instr, s);
    hook(*instr, s.ops);
  }
}

Ctx replayCtx(const ir::Module &module, const RangeAnalysis &ranges) {
  return Ctx{module, ranges.memValues, ranges.chanValues,
             ranges.returnValues, nullptr};
}

std::atomic<std::uint64_t> rangeSolves{0};
std::atomic<std::uint64_t> functionSolves{0};
std::atomic<std::uint64_t> blockTransfers{0};
std::atomic<std::uint64_t> intervalCopies{0};

} // namespace

// ---------------------------------------------------------------------------
// Public entry points.

std::uint64_t analyzeRangesCalls() {
  return rangeSolves.load(std::memory_order_relaxed);
}

std::uint64_t rangeFunctionSolves() {
  return functionSolves.load(std::memory_order_relaxed);
}

std::uint64_t rangeBlockTransfers() {
  return blockTransfers.load(std::memory_order_relaxed);
}

std::uint64_t rangeIntervalCopies() {
  return intervalCopies.load(std::memory_order_relaxed);
}

RangeAnalysis analyzeRanges(const ir::Module &module) {
  rangeSolves.fetch_add(1, std::memory_order_relaxed);
  const std::size_t fns = module.functions().size();
  const std::vector<Interval> memSeed = seedMemSummaries(module);
  Ctx ctx{module, memSeed,
          std::vector<Interval>(module.chans().size(), Interval::bottom()),
          std::vector<Interval>(fns, Interval::bottom()), nullptr};

  std::vector<unsigned> memWidths, chanWidths, retWidths;
  for (const auto &mem : module.mems())
    memWidths.push_back(mem.width);
  for (const auto &chan : module.chans())
    chanWidths.push_back(chan.width);
  for (const auto &fn : module.functions())
    retWidths.push_back(std::max(1u, fn->returnWidth()));

  // What the instructions fix (widths, liveness, branch plans, iteration
  // order, read sets) is computed once here; only the summaries change
  // between rounds.
  std::vector<FnCtx> fcs;
  std::vector<FnPlan> plans;
  for (const auto &fn : module.functions()) {
    fcs.push_back(makeFnCtx(module, *fn));
    plans.push_back(planFunction(module, *fn));
  }
  Scratch s;
  RangeAnalysis out;
  // Per function: what its last solve added to the summaries, and whether
  // a summary it reads changed since.  A function whose reads held still
  // would solve to the same states, so it keeps its last solve.
  std::vector<std::vector<SummaryWrite>> writes(fns);
  std::vector<char> stale(fns, 1);
  std::vector<char> memGrew, chanGrew, retGrew;
  std::uint64_t solved = 0;
  // Rounds whose summaries may still grow.  Past round 3 a summary that
  // grows jumps to top, but a chain of summaries each enabling the next
  // can outlast any fixed count; at the cap every summary goes to top and
  // one more round solves against that.
  constexpr unsigned kMaxRounds = 8;
  for (unsigned round = 0;; ++round) {
    for (std::size_t i = 0; i < fns; ++i)
      if (stale[i]) {
        analyzeFunction(fcs[i], plans[i], ctx, s, out, writes[i]);
        ++solved;
      }
    if (round == kMaxRounds)
      break; // solved against top summaries, which nothing can grow
    // This round's summaries: the memories' initial contents, then every
    // function's writes in module order.
    std::vector<Interval> memNext = memSeed;
    std::vector<Interval> chanNext(module.chans().size(), Interval::bottom());
    std::vector<Interval> retNext(fns, Interval::bottom());
    for (const auto &fnWrites : writes)
      for (const SummaryWrite &w : fnWrites)
        switch (w.kind) {
        case SummaryWrite::Mem:
          memNext[w.id].join(w.value, memWidths[w.id]);
          break;
        case SummaryWrite::Chan:
          chanNext[w.id].join(w.value, chanWidths[w.id]);
          break;
        case SummaryWrite::Ret:
          retNext[w.id].join(w.value, retWidths[w.id]);
          break;
        }
    bool widen = round >= 3;
    bool changed = growSummaries(ctx.memCur, memNext, memWidths, widen,
                                 memGrew);
    changed |= growSummaries(ctx.chanCur, chanNext, chanWidths, widen,
                             chanGrew);
    changed |= growSummaries(ctx.retCur, retNext, retWidths, widen, retGrew);
    if (!changed)
      break;
    if (round + 1 == kMaxRounds) {
      saturateSummaries(ctx.memCur, memWidths, memGrew);
      saturateSummaries(ctx.chanCur, chanWidths, chanGrew);
      saturateSummaries(ctx.retCur, retWidths, retGrew);
    }
    for (std::size_t i = 0; i < fns; ++i)
      stale[i] = readsGrown(plans[i].loads, memGrew) ||
                 readsGrown(plans[i].recvs, chanGrew) ||
                 readsGrown(plans[i].callees, retGrew);
  }
  out.memValues = ctx.memCur;
  out.chanValues = ctx.chanCur;
  out.returnValues = ctx.retCur;
  functionSolves.fetch_add(solved, std::memory_order_relaxed);
  blockTransfers.fetch_add(s.transfers, std::memory_order_relaxed);
  intervalCopies.fetch_add(s.copies, std::memory_order_relaxed);
  return out;
}

opt::WidthInference inferWidthsWithRanges(const ir::Module &module,
                                          const ir::Function &fn,
                                          const RangeAnalysis &ranges) {
  const FunctionRanges *fr = ranges.of(fn);
  return opt::inferWidths(module, fn, fr ? &fr->facts : nullptr);
}

bool pruneDeadBranches(ir::Module &module) {
  RangeAnalysis ranges = analyzeRanges(module);
  bool changed = false;
  for (const auto &fn : module.functions()) {
    const FunctionRanges *fr = ranges.of(*fn);
    if (!fr || fr->decided.empty())
      continue;
    if (opt::foldDecidedBranches(*fn, fr->decided))
      changed = true;
  }
  return changed;
}

// ---------------------------------------------------------------------------
// Diagnostics.

namespace {

std::string fnLabel(const ir::Function &fn) {
  return "in '" + fn.name() + "'";
}

void addFinding(Report &report, std::set<std::string> &seen, Severity sev,
                const char *code, std::string message, SourceLoc loc,
                std::string label, std::string hint) {
  std::string key = std::string(code) + "@" + std::to_string(loc.line) + ":" +
                    std::to_string(loc.column) + "|" + message;
  if (!seen.insert(key).second)
    return;
  Diagnostic d;
  d.severity = sev;
  d.code = code;
  d.message = std::move(message);
  d.spans.push_back({loc, std::move(label)});
  d.hint = std::move(hint);
  report.add(std::move(d));
}

SourceLoc firstLoc(const ir::BasicBlock &block) {
  for (const auto &instr : block.instrs())
    if (instr->loc.isValid())
      return instr->loc;
  return SourceLoc{};
}

// A branch decided by a *literal* condition — one computed purely from
// immediates, like `while (1)`'s `cmpne 1, 0` — is deliberate control
// flow and not worth a diagnostic; conditions derived from actual data
// are.  The condition's defs may live outside the branch's own block
// (lowering puts a while-loop's test in the header it jumps back to), so
// every def in the function is looked at, to a small depth, through an
// index of the function's defs by vreg built once per function.
class LiteralConds {
public:
  explicit LiteralConds(const ir::Function &fn) {
    for (const auto &block : fn.blocks())
      for (const auto &instr : block->instrs())
        if (instr->dst) {
          if (instr->dst->id >= defs_.size())
            defs_.resize(instr->dst->id + 1);
          defs_[instr->dst->id].push_back(instr.get());
        }
  }

  bool decides(const ir::Instr &term) const {
    return literalOperand(term.operands[0], 4);
  }

private:
  bool literalReg(unsigned id, int depth) const {
    if (depth <= 0 || id >= defs_.size() || defs_[id].empty())
      return false;
    for (const ir::Instr *def : defs_[id]) {
      if (!ir::isPure(def->op) && def->op != Opcode::Const)
        return false;
      for (const auto &o : def->operands)
        if (!literalOperand(o, depth - 1))
          return false;
    }
    return true;
  }
  bool literalOperand(const ir::Operand &op, int depth) const {
    return op.isImm() || literalReg(op.reg().id, depth);
  }

  std::vector<std::vector<const ir::Instr *>> defs_; // by vreg id
};

void checkBlock(const FnCtx &fc, Ctx &ctx, Scratch &s,
                const LiteralConds &literal, const FunctionRanges &fr,
                const ir::BasicBlock &block, Report &report,
                std::set<std::string> &seen) {
  const ir::Module &module = ctx.module;
  const ir::Function &fn = fc.fn;
  replay(fc, ctx, s, fr.entry.at(&block), block,
         [&](const ir::Instr &instr, const std::vector<Interval> &ops) {
    switch (instr.op) {
    case Opcode::Load:
    case Opcode::Store: {
      if (instr.memId >= module.mems().size())
        break;
      const ir::MemObject &mem = module.mems()[instr.memId];
      const Interval &ix = ops[0];
      if (!ix.known())
        break;
      unsigned W = instr.operands[0].width();
      std::int64_t depth = mem.depth > static_cast<std::uint64_t>(INT64_MAX)
                               ? INT64_MAX
                               : static_cast<std::int64_t>(mem.depth);
      // The executor reads the address as an unsigned pattern: a negative
      // signed value v at width W addresses word v + 2^W.
      bool negPossible = ix.lo < 0;
      bool negAllOut = false, negAnyOut = false;
      if (negPossible && W <= 63) {
        I128 wrap = I128(1) << W;
        I128 pLo = I128(ix.lo) + wrap;
        I128 pHi = I128(std::min<std::int64_t>(ix.hi, -1)) + wrap;
        negAllOut = pLo >= depth;
        negAnyOut = pHi >= depth;
      } else if (negPossible) {
        negAllOut = negAnyOut = true; // W >= 64: patterns astronomically big
      }
      bool posPossible = ix.hi >= 0;
      std::int64_t pLo = std::max<std::int64_t>(ix.lo, 0);
      bool posAllOut = posPossible && pLo >= depth;
      bool posAnyOut = posPossible && ix.hi >= depth;
      bool allOut = (!negPossible || negAllOut) && (!posPossible || posAllOut);
      bool anyOut = negAnyOut || posAnyOut;
      const char *what = instr.op == Opcode::Load ? "load from" : "store to";
      if (allOut) {
        addFinding(report, seen, Severity::Error, "C2H-BOUND-001",
                   std::string(what) + " '" + mem.name + "' is always out of "
                   "range: index in " + ix.str() + " but depth is " +
                   std::to_string(mem.depth) + " " + fnLabel(fn),
                   instr.loc, "indexed here",
                   "every value the index can take misses the array; this "
                   "access faults in simulation and synthesizes to nothing");
      } else if (anyOut && !ix.isTop(W)) {
        addFinding(report, seen, Severity::Warning, "C2H-BOUND-002",
                   std::string(what) + " '" + mem.name + "' may be out of "
                   "range: index in " + ix.str() + " but depth is " +
                   std::to_string(mem.depth) + " " + fnLabel(fn),
                   instr.loc, "indexed here",
                   "mask or guard the index so the proved range fits the "
                   "array, or size the array to cover it");
      }
      break;
    }
    case Opcode::DivS:
    case Opcode::DivU:
    case Opcode::RemS:
    case Opcode::RemU: {
      const Interval &d = ops[1];
      if (d.known() && d.lo == 0 && d.hi == 0)
        addFinding(report, seen, Severity::Error, "C2H-DIV-001",
                   "division by zero: the divisor is provably 0 " +
                       fnLabel(fn),
                   instr.loc, "divides here",
                   "the divisor is 0 on every path reaching this operation; "
                   "hardware division by zero yields the all-ones quotient");
      break;
    }
    case Opcode::Shl:
    case Opcode::ShrL:
    case Opcode::ShrA: {
      const Interval &k = ops[1];
      unsigned W0 = instr.operands[0].width();
      if (k.known() &&
          (k.lo >= static_cast<std::int64_t>(W0) || k.hi < 0))
        addFinding(report, seen, Severity::Warning, "C2H-SHIFT-001",
                   "shift amount is provably >= the operand width (" +
                       k.str() + " vs width " + std::to_string(W0) + ") " +
                       fnLabel(fn),
                   instr.loc, "shifted here",
                   "a shift by the full width or more clears the value "
                   "(or fills with the sign); the datapath it implies is "
                   "dead weight");
      break;
    }
    case Opcode::Trunc: {
      const Interval &v = ops[0];
      unsigned dstW = instr.dst ? instr.dst->width : 0;
      if (!v.known() || dstW == 0 || dstW > 63)
        break;
      // Guaranteed loss: no value in the interval survives as either a
      // signed or an unsigned dstW-bit quantity.
      std::int64_t mn = Interval::minSigned(dstW);
      std::int64_t mx = (std::int64_t(1) << dstW) - 1;
      if (v.hi < mn || v.lo > mx)
        addFinding(report, seen, Severity::Warning, "C2H-OVFL-001",
                   "narrowing always discards significant bits: value in " +
                       v.str() + " truncated to " + std::to_string(dstW) +
                       " bits " + fnLabel(fn),
                   instr.loc, "narrowed here",
                   "every value this expression produces is mangled by the "
                   "narrower destination; widen the destination or mask "
                   "explicitly");
      break;
    }
    case Opcode::CondBr: {
      auto dIt = fr.decided.find(&instr);
      if (dIt == fr.decided.end() || instr.target0 == instr.target1)
        break;
      if (literal.decides(instr))
        break;
      if (!instr.loc.isValid())
        break;
      addFinding(report, seen, Severity::Warning, "C2H-DEAD-001",
                 std::string("branch condition is provably ") +
                     (dIt->second ? "true" : "false") + ": the " +
                     (dIt->second ? "false" : "true") +
                     " side can never run " + fnLabel(fn),
                 instr.loc, "condition decided here",
                 "the value ranges reaching this branch decide it; the "
                 "untaken side is dead hardware");
      break;
    }
    default:
      break;
    }
  });
}

} // namespace

Report checkRanges(const ir::Module &module, const RangeAnalysis &ranges) {
  Report report;
  std::set<std::string> seen;
  // One context per module and one per function, not one per block: the
  // replay is O(instructions) per function.
  Ctx ctx = replayCtx(module, ranges);
  Scratch s;
  for (const auto &fn : module.functions()) {
    const FunctionRanges *fr = ranges.of(*fn);
    if (!fr)
      continue;
    FnCtx fc = makeFnCtx(module, *fn);
    const LiteralConds literal(*fn);
    auto preds = ir::predecessorMap(*fn);
    for (ir::BasicBlock *block : fn->reversePostOrder()) {
      if (!fr->reachable(block)) {
        // Report dead code once, at the frontier: a dead block with at
        // least one live predecessor.
        // An edge from a syntactic-const branch (`while (1)`'s exit) does
        // not make the dead side reportable: the author wrote the
        // infinite loop on purpose, and the trailing code often exists
        // only to satisfy the return checker.
        bool frontier = false;
        auto pIt = preds.find(block);
        if (pIt != preds.end())
          for (const ir::BasicBlock *p : pIt->second) {
            if (!fr->reachable(p))
              continue;
            const ir::Instr *pTerm = p->terminator();
            if (pTerm && pTerm->op == Opcode::CondBr &&
                literal.decides(*pTerm))
              continue;
            frontier = true;
          }
        SourceLoc loc = firstLoc(*block);
        if (frontier && loc.isValid())
          addFinding(report, seen, Severity::Warning, "C2H-DEAD-001",
                     "unreachable code: no value ranges reach this block " +
                         fnLabel(*fn),
                     loc, "never executes",
                     "the guarding conditions exclude every input; this "
                     "code synthesizes to hardware that can never fire");
        continue;
      }
      checkBlock(fc, ctx, s, literal, *fr, *block, report, seen);
    }
  }
  report.sort();
  return report;
}

Report checkRanges(const ir::Module &module) {
  RangeAnalysis ranges = analyzeRanges(module);
  return checkRanges(module, ranges);
}

} // namespace c2h::analysis
