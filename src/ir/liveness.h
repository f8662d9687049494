// Virtual-register liveness over the CFG.
//
// Used by dead-code elimination, the register binder (two vregs may share
// one hardware register iff their live ranges do not interfere), stackify
// (what a self-call must save) and the range solver (which intervals a
// block state keeps).
//
// The sets are the least solution of the usual backward equations over
// every block of the function, reachable from the entry or not:
//   liveOut(b) = union of liveIn(s) over the successors s of b
//   liveIn(b)  = uses(b) + (liveOut(b) - defs(b))
// where uses(b) are the vregs b reads before writing them.  They are found
// without iterating, one vreg at a time in ascending order: the vreg is
// live into every block that reads it upward-exposed, and from each block
// it is live into, it is live out of every predecessor, and live into that
// predecessor too unless the predecessor writes it.  A per-block stamp
// visits each (block, vreg) pair once, so the cost is the sum of the live
// sets' sizes times the predecessors per block, plus one pass over the
// instructions, and every set comes out sorted.
#ifndef C2H_IR_LIVENESS_H
#define C2H_IR_LIVENESS_H

#include "ir/ir.h"

#include <vector>

namespace c2h::ir {

class Liveness {
public:
  explicit Liveness(const Function &fn);

  // Ascending vreg ids.  `block` must be a block of the function.
  const std::vector<unsigned> &liveIn(const BasicBlock *block) const;
  const std::vector<unsigned> &liveOut(const BasicBlock *block) const;

private:
  // By block id.
  std::vector<std::vector<unsigned>> liveIn_, liveOut_;
};

} // namespace c2h::ir

#endif // C2H_IR_LIVENESS_H
