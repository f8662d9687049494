#include "ir/liveness.h"

namespace c2h::ir {

Liveness::Liveness(const Function &fn) {
  const unsigned blocks = fn.blockIdCount();
  liveIn_.resize(blocks);
  liveOut_.resize(blocks);

  // One pass over the instructions.  By vreg: the ids of the blocks that
  // read it before writing it, and of the blocks that write it.  By block
  // id: its predecessors.  Blocks are visited once each, so a list already
  // holds the current block iff its last entry is that block.
  std::vector<std::vector<unsigned>> readers(fn.vregCount()),
      writers(fn.vregCount()), preds(blocks);
  for (const auto &block : fn.blocks()) {
    const unsigned id = block->id();
    auto note = [&](std::vector<std::vector<unsigned>> &lists, unsigned r) {
      if (r >= readers.size()) {
        readers.resize(r + 1);
        writers.resize(r + 1);
      }
      if (!writers[r].empty() && writers[r].back() == id)
        return; // written earlier in this block
      if (lists[r].empty() || lists[r].back() != id)
        lists[r].push_back(id);
    };
    for (const auto &instr : block->instrs()) {
      for (const auto &op : instr->operands)
        if (op.isReg())
          note(readers, op.reg().id);
      if (instr->dst)
        note(writers, instr->dst->id);
    }
    for (const BasicBlock *succ : block->successors())
      preds[succ->id()].push_back(id);
  }

  // Each vreg in turn, walking backward from its upward-exposed reads.  By
  // block id: 1 + the last vreg found live in, live out, and written there.
  std::vector<unsigned> in(blocks, 0), out(blocks, 0), written(blocks, 0);
  std::vector<unsigned> work;
  for (unsigned r = 0; r < readers.size(); ++r) {
    const unsigned stamp = r + 1;
    for (unsigned b : writers[r])
      written[b] = stamp;
    for (unsigned b : readers[r]) {
      in[b] = stamp;
      liveIn_[b].push_back(r);
      work.push_back(b);
    }
    while (!work.empty()) {
      const unsigned b = work.back();
      work.pop_back();
      for (unsigned p : preds[b]) {
        if (out[p] == stamp)
          continue;
        out[p] = stamp;
        liveOut_[p].push_back(r);
        if (written[p] != stamp && in[p] != stamp) {
          in[p] = stamp;
          liveIn_[p].push_back(r);
          work.push_back(p);
        }
      }
    }
  }
}

const std::vector<unsigned> &Liveness::liveIn(const BasicBlock *block) const {
  return liveIn_[block->id()];
}

const std::vector<unsigned> &Liveness::liveOut(const BasicBlock *block) const {
  return liveOut_[block->id()];
}

} // namespace c2h::ir
