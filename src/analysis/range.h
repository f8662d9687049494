// Value-range abstract interpretation over the lowered IR.
//
// The paper's complaint about C-like inputs is that the language states
// none of the properties synthesis needs — indices have no bounds, 32-bit
// types carry 4-bit data, branches that can never run still cost area.
// This analysis recovers those properties where they are *provable*: a
// forward dataflow (ir/dataflow.h) computes, per virtual register, a
// signed interval plus known-zero bits, with widening at loop headers and
// branch-condition refinement on CFG edges; memory and channel contents
// are summarized per object so loads are bounded by everything ever
// stored; and per-block reachability falls out of edge feasibility.
//
// The facts feed three consumers:
//  * semantic diagnostics (checkRanges): C2H-BOUND-001/002 (provable /
//    possible out-of-range memory index), C2H-DIV-001 (provable division
//    by zero), C2H-SHIFT-001 (shift amount provably >= width),
//    C2H-DEAD-001 (range-unreachable block / always-taken branch), and
//    C2H-OVFL-001 (truncation that provably discards significant bits —
//    the IR-level subsumption of the sema-time C2H-WIDTH-001 heuristic);
//  * width inference (inferWidthsWithRanges): signed intervals narrow
//    negative-capable values past opt/widthinfer.h's magnitude bound;
//  * dead-branch pruning (pruneDeadBranches): provably one-sided CondBrs
//    fold to Br via opt::foldDecidedBranches.
//
// Every claim is checked dynamically: tests/testutil.h replays programs
// and asserts each runtime value lies inside its interval, each executed
// block was claimed reachable, and each narrowed width holds.
#ifndef C2H_ANALYSIS_RANGE_H
#define C2H_ANALYSIS_RANGE_H

#include "analysis/diagnostic.h"
#include "ir/ir.h"
#include "opt/widthinfer.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace c2h::analysis {

// A signed interval over the two's-complement interpretation of a value at
// its declared width, plus a known-zero-bits mask.  Widths above 64 bits
// are not tracked (`wide`); `bot` means "no value reaches this point".
struct Interval {
  bool bot = true;
  bool wide = false;
  std::int64_t lo = 0;
  std::int64_t hi = 0;
  // Bits provably zero in the value's pattern; meaningful only when the
  // value is provably non-negative (lo >= 0) and !wide.
  std::uint64_t zeros = 0;

  static std::int64_t minSigned(unsigned width);
  static std::int64_t maxSigned(unsigned width);
  static Interval bottom() { return Interval{}; }
  static Interval topFor(unsigned width);
  static Interval range(std::int64_t lo, std::int64_t hi, unsigned width);
  static Interval constant(const BitVector &value);

  bool known() const { return !bot && !wide; }
  bool isConst() const { return known() && lo == hi; }
  bool isTop(unsigned width) const;
  bool contains(std::int64_t v) const { return known() && lo <= v && v <= hi; }
  // May the value be zero / nonzero?  (wide counts as "maybe".)
  bool mayBeZero() const;
  bool mayBeNonZero() const;

  void join(const Interval &other, unsigned width);
  // Intersect; returns false (and sets bot) when the result is empty.
  bool meet(const Interval &other);
  // Clamp hi against the known-zero mask and drop the mask when negative
  // values are possible.
  void normalize(unsigned width);
  std::string str() const;
};

// A block-entry state.  It is sparse: it holds intervals only for the vregs
// live into its block (ir/liveness.h), in ascending vreg order, so every
// state of one block has the same layout and a join walks two arrays side
// by side.  A dead vreg's value can never be read again, so dropping it
// loses nothing; a state's size follows the block's live-in set, not the
// function's vreg count.
struct ValueState {
  struct Reg {
    unsigned vreg = 0;
    Interval iv;
  };
  std::vector<Reg> regs;
  // Relational facts planted by branch refinement: "op(a, b) lies in
  // range", valid until a or b is rewritten.  This is what lets a guard
  // like `if (n - k >= 0)` bound a *recomputed* `n - k` in the guarded
  // block even though lowering gave the two subtractions different vregs.
  struct ExprFact {
    ir::Opcode op = ir::Opcode::Nop;
    unsigned a = 0;
    unsigned b = 0;
    Interval range;
  };
  std::vector<ExprFact> exprs;
};

struct FunctionRanges {
  // Block-entry states for every range-reachable block: an interval for
  // each vreg live into it.
  std::map<const ir::BasicBlock *, ValueState> entry;
  // Per-vreg union over every write (plus the zero reset value for
  // non-parameters): the global bound width inference consumes.
  opt::IntervalFacts facts;
  // CondBr terminators whose direction is proved: true = always target0.
  std::map<const ir::Instr *, bool> decided;

  bool reachable(const ir::BasicBlock *block) const {
    return entry.count(block) != 0;
  }
};

struct RangeAnalysis {
  std::map<const ir::Function *, FunctionRanges> functions;
  std::vector<Interval> memValues;    // per mem id: every stored/init value
  std::vector<Interval> chanValues;   // per chan id: every sent value
  std::vector<Interval> returnValues; // per function index: every Ret value

  const FunctionRanges *of(const ir::Function &fn) const {
    auto it = functions.find(&fn);
    return it == functions.end() ? nullptr : &it->second;
  }
};

// Run the abstract interpreter over every function, iterating the module-
// level memory/channel/return summaries to their own fixpoint.  A round
// re-solves only the functions that read a summary the round before grew;
// summaries still growing after a fixed number of rounds go to top.
RangeAnalysis analyzeRanges(const ir::Module &module);

// How many times analyzeRanges has run in this process (relaxed atomic).
// A deterministic work count: tests bound it where wall time would flake.
std::uint64_t analyzeRangesCalls();

// How many single-function solves analyzeRanges has made in this process,
// over every round of its module fixpoint (relaxed atomic).
std::uint64_t rangeFunctionSolves();

// How many block transfers the range solver has made in this process, in
// the fixpoint and the narrowing sweeps (relaxed atomic).  Bounded per
// analyzeRanges by tests, it shows how the solver's work scales.
std::uint64_t rangeBlockTransfers();

// How many intervals the range solver has copied into or out of block
// states or walked in joins, in this process (relaxed atomic).  With sparse
// states it grows with the live-in sets, not with the vreg count.
std::uint64_t rangeIntervalCopies();

// The C2H-BOUND/DIV/SHIFT/DEAD/OVFL diagnostic family over `module`.
Report checkRanges(const ir::Module &module);
Report checkRanges(const ir::Module &module, const RangeAnalysis &ranges);

// inferWidths with this module's interval facts for `fn`.
opt::WidthInference inferWidthsWithRanges(const ir::Module &module,
                                          const ir::Function &fn,
                                          const RangeAnalysis &ranges);

// Fold every range-decided branch (opt::foldDecidedBranches) in every
// function; returns true when anything changed.
bool pruneDeadBranches(ir::Module &module);

} // namespace c2h::analysis

#endif // C2H_ANALYSIS_RANGE_H
