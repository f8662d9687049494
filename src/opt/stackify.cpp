#include "opt/stackify.h"

#include "ir/builder.h"
#include "ir/liveness.h"

#include <algorithm>
#include <map>
#include <set>

namespace c2h::opt {

using namespace ir;

namespace {

constexpr unsigned kAddrWidth = 32;

struct CallSite {
  BasicBlock *block = nullptr;
  std::size_t index = 0;               // instruction index of the call
  std::vector<unsigned> liveAfter;     // vregs to save (sorted)
  std::optional<VReg> dst;
};

// Registers live immediately *after* instruction `index` of `block`.
std::set<unsigned> liveAfterInstr(const Liveness &liveness, BasicBlock *block,
                                  std::size_t index) {
  const std::vector<unsigned> &out = liveness.liveOut(block);
  std::set<unsigned> live(out.begin(), out.end());
  const auto &instrs = block->instrs();
  for (std::size_t i = instrs.size(); i-- > index + 1;) {
    const Instr &instr = *instrs[i];
    if (instr.dst)
      live.erase(instr.dst->id);
    for (const auto &op : instr.operands)
      if (op.isReg())
        live.insert(op.reg().id);
  }
  return live;
}

class Stackifier {
public:
  Stackifier(Module &module, Function &fn, const StackifyOptions &options)
      : module_(module), fn_(fn), options_(options) {}

  bool run() {
    // Gather self-call sites.
    Liveness liveness(fn_);
    std::vector<CallSite> sites;
    for (const auto &block : fn_.blocks()) {
      for (std::size_t i = 0; i < block->instrs().size(); ++i) {
        const Instr &instr = *block->instrs()[i];
        if (instr.op == Opcode::Call && instr.callee == fn_.name()) {
          CallSite site;
          site.block = block.get();
          site.index = i;
          site.dst = instr.dst;
          std::set<unsigned> live = liveAfterInstr(liveness, block.get(), i);
          if (instr.dst)
            live.erase(instr.dst->id);
          site.liveAfter.assign(live.begin(), live.end());
          sites.push_back(site);
        }
      }
    }
    if (sites.empty())
      return false;

    collectWidths();

    // The stack memory: one word per saved value (+1 for the site tag).
    unsigned wordWidth = kAddrWidth;
    for (const auto &site : sites)
      for (unsigned reg : site.liveAfter)
        wordWidth = std::max(wordWidth, widthOf(reg));
    MemObject &stack = module_.addMem(fn_.name() + ".stack", wordWidth,
                                      options_.stackWords);

    VReg sp = fn_.newVReg(kAddrWidth);
    VReg retval = fn_.newVReg(std::max(1u, fn_.returnWidth()));

    // New pre-entry: sp = 0, then fall into the old entry.  The entry block
    // must become the branch target for re-entry, so we keep it and insert
    // the pre-entry at position 0.
    BasicBlock *oldEntry = fn_.entry();
    BasicBlock *preEntry = fn_.newBlock("stack_entry");
    {
      auto &blocks = fn_.blocks();
      auto it = std::find_if(blocks.begin(), blocks.end(),
                             [&](const std::unique_ptr<BasicBlock> &b) {
                               return b.get() == preEntry;
                             });
      std::unique_ptr<BasicBlock> owned = std::move(*it);
      blocks.erase(it);
      blocks.insert(blocks.begin(), std::move(owned));
    }
    Builder b(fn_);
    b.setInsertPoint(preEntry);
    b.emitCopyTo(sp, Operand(BitVector(kAddrWidth)));
    b.emitBr(oldEntry);

    // Return dispatch skeleton (filled after sites are rewritten).
    BasicBlock *retDispatch = fn_.newBlock("ret_dispatch");

    // Rewrite every Ret into: retval = v; br ret_dispatch.
    for (auto &block : fn_.blocks()) {
      if (block.get() == retDispatch)
        continue;
      Instr *term = block->terminator();
      if (!term || term->op != Opcode::Ret)
        continue;
      if (!term->operands.empty()) {
        auto copy = std::make_unique<Instr>();
        copy->op = Opcode::Copy;
        copy->dst = retval;
        copy->operands = {term->operands[0]};
        block->instrs().insert(block->instrs().end() - 1, std::move(copy));
      }
      term->op = Opcode::Br;
      term->operands.clear();
      term->target0 = retDispatch;
    }

    // Rewrite call sites: split blocks, emit pushes.  Within one block the
    // later site must be split first (fib has two calls in one block), or
    // the earlier split would move the later call into a continuation and
    // leave its recorded position dangling.
    std::vector<std::size_t> order(sites.size());
    for (std::size_t i = 0; i < order.size(); ++i)
      order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      if (sites[a].block != sites[b].block)
        return sites[a].block < sites[b].block;
      return sites[a].index > sites[b].index;
    });
    std::vector<BasicBlock *> continuations(sites.size(), nullptr);
    for (std::size_t s : order) {
      CallSite &site = sites[s];
      BasicBlock *head = site.block;
      BasicBlock *cont = fn_.newBlock(head->name() + "_cont" +
                                      std::to_string(s));
      continuations[s] = cont;

      // Move the instructions after the call into the continuation.
      auto &instrs = head->instrs();
      std::unique_ptr<Instr> callInstr = std::move(instrs[site.index]);
      for (std::size_t i = site.index + 1; i < instrs.size(); ++i)
        cont->instrs().push_back(std::move(instrs[i]));
      instrs.resize(site.index);

      // Emit the push sequence + argument hand-off + re-entry branch.
      b.setInsertPoint(head);
      // Arguments into temporaries first (they may read the params we are
      // about to overwrite).
      std::vector<VReg> argTemps;
      for (std::size_t i = 0; i < callInstr->operands.size(); ++i) {
        VReg temp = fn_.newVReg(callInstr->operands[i].width());
        b.emitCopyTo(temp, callInstr->operands[i]);
        argTemps.push_back(temp);
      }
      // Push saved registers.
      unsigned offset = 0;
      for (unsigned reg : site.liveAfter) {
        VReg addr = b.emitBinary(Opcode::Add, sp,
                                 Operand(BitVector(kAddrWidth, offset)));
        b.emitStore(stack.id, addr,
                    b.emitResize(VReg{reg, widthOf(reg)}, wordWidth, false));
        ++offset;
      }
      // Push the site tag.
      VReg tagAddr = b.emitBinary(Opcode::Add, sp,
                                  Operand(BitVector(kAddrWidth, offset)));
      b.emitStore(stack.id, tagAddr,
                  Operand(BitVector(wordWidth, s)));
      b.emitCopyTo(sp, b.emitBinary(Opcode::Add, sp,
                                    Operand(BitVector(kAddrWidth,
                                                      offset + 1))));
      // Hand arguments to the parameters and re-enter.
      for (std::size_t i = 0; i < argTemps.size() &&
                              i < fn_.params().size();
           ++i)
        b.emitCopyTo(fn_.params()[i],
                     b.emitResize(argTemps[i], fn_.params()[i].width,
                                  false));
      b.emitBr(oldEntry);
    }

    // Build the return dispatch: outermost return or pop-and-continue.
    b.setInsertPoint(retDispatch);
    VReg isOuter = b.emitCompare(Opcode::CmpEq, sp,
                                 Operand(BitVector(kAddrWidth)));
    BasicBlock *realRet = fn_.newBlock("ret_outer");
    BasicBlock *popBlock = fn_.newBlock("ret_pop");
    b.emitCondBr(isOuter, realRet, popBlock);

    b.setInsertPoint(realRet);
    if (fn_.returnWidth() != 0)
      b.emitRet(retval);
    else
      b.emitRet();

    // Pop: read the site tag, then dispatch to per-site restore blocks.
    b.setInsertPoint(popBlock);
    VReg tagAddr = b.emitBinary(Opcode::Sub, sp,
                                Operand(BitVector(kAddrWidth, 1)));
    VReg tag = b.emitLoad(stack.id, tagAddr, wordWidth);

    std::vector<BasicBlock *> restoreBlocks;
    for (std::size_t s = 0; s < sites.size(); ++s)
      restoreBlocks.push_back(
          fn_.newBlock("restore" + std::to_string(s)));
    // Chain of compares (a site-count-way dispatch).
    for (std::size_t s = 0; s < sites.size(); ++s) {
      if (s + 1 == sites.size()) {
        b.emitBr(restoreBlocks[s]);
        break;
      }
      VReg isSite = b.emitCompare(Opcode::CmpEq, tag,
                                  Operand(BitVector(wordWidth, s)));
      BasicBlock *next = fn_.newBlock("dispatch" + std::to_string(s + 1));
      b.emitCondBr(isSite, restoreBlocks[s], next);
      b.setInsertPoint(next);
    }

    for (std::size_t s = 0; s < sites.size(); ++s) {
      CallSite &site = sites[s];
      b.setInsertPoint(restoreBlocks[s]);
      unsigned frameWords =
          static_cast<unsigned>(site.liveAfter.size()) + 1;
      VReg base = b.emitBinary(Opcode::Sub, sp,
                               Operand(BitVector(kAddrWidth, frameWords)));
      unsigned offset = 0;
      for (unsigned reg : site.liveAfter) {
        VReg addr = b.emitBinary(Opcode::Add, base,
                                 Operand(BitVector(kAddrWidth, offset)));
        VReg loaded = b.emitLoad(stack.id, addr, wordWidth);
        b.emitCopyTo(VReg{reg, widthOf(reg)},
                     b.emitResize(loaded, widthOf(reg), false));
        ++offset;
      }
      b.emitCopyTo(sp, base);
      if (site.dst)
        b.emitCopyTo(*site.dst,
                     b.emitResize(retval, site.dst->width, false));
      b.emitBr(continuations[s]);
    }
    return true;
  }

private:
  void collectWidths() {
    for (const auto &p : fn_.params())
      widths_[p.id] = p.width;
    for (const auto &block : fn_.blocks())
      for (const auto &instr : block->instrs())
        if (instr->dst)
          widths_[instr->dst->id] = instr->dst->width;
  }
  unsigned widthOf(unsigned reg) const {
    auto it = widths_.find(reg);
    return it == widths_.end() ? 32 : it->second;
  }

  Module &module_;
  Function &fn_;
  StackifyOptions options_;
  std::map<unsigned, unsigned> widths_;
};

bool directlySelfRecursive(const Function &fn) {
  for (const auto &block : fn.blocks())
    for (const auto &instr : block->instrs())
      if (instr->op == Opcode::Call && instr->callee == fn.name())
        return true;
  return false;
}

} // namespace

bool stackifyRecursion(ir::Module &module, const StackifyOptions &options) {
  bool any = false;
  for (auto &fn : module.functions()) {
    if (!directlySelfRecursive(*fn))
      continue;
    Stackifier stackifier(module, *fn, options);
    any |= stackifier.run();
  }
  return any;
}

} // namespace c2h::opt
