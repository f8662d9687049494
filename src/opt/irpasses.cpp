#include "opt/irpasses.h"

#include "ir/exec.h"
#include "ir/liveness.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

namespace c2h::opt {

using namespace ir;

namespace {

// A resolved value: an immediate or a (register, version) pair.  Versions
// make value numbering sound over non-SSA registers: any write to a
// register invalidates stale references automatically.
struct ValRef {
  bool isImm = false;
  BitVector imm{1};
  unsigned reg = 0;
  unsigned version = 0;
  unsigned width = 1;

  std::string repr() const {
    if (isImm)
      return "i" + imm.toStringHex() + ":" + std::to_string(imm.width());
    return "r" + std::to_string(reg) + "." + std::to_string(version) + ":" +
           std::to_string(width);
  }
};

bool isPow2(const BitVector &v) { return !v.isZero() && v.popcount() == 1; }
unsigned log2Of(const BitVector &v) { return v.activeBits() - 1; }

class LVN {
public:
  explicit LVN(Function &fn) : fn_(fn), version_(fn.vregCount(), 0) {}

  bool run() {
    bool changed = false;
    for (auto &block : fn_.blocks())
      changed |= runBlock(*block);
    return changed;
  }

private:
  ValRef resolve(const Operand &op) {
    if (op.isImm()) {
      ValRef v;
      v.isImm = true;
      v.imm = op.imm();
      v.width = op.width();
      return v;
    }
    unsigned reg = op.reg().id;
    auto it = binding_.find(reg);
    if (it != binding_.end()) {
      const ValRef &b = it->second;
      if (b.isImm)
        return b;
      // A register binding is valid only while the source register has not
      // been rewritten since.
      if (version_[b.reg] == b.version)
        return b;
      binding_.erase(it);
    }
    ValRef v;
    v.reg = reg;
    v.version = version_[reg];
    v.width = op.reg().width;
    return v;
  }

  Operand toOperand(const ValRef &v, unsigned width) {
    if (v.isImm)
      return Operand(v.imm);
    return Operand(VReg{v.reg, width});
  }

  void defineReg(unsigned reg) {
    ++version_[reg];
    binding_.erase(reg);
  }

  // Rewrite `instr` into a Copy of `v` (or a Const).
  void rewriteToValue(Instr &instr, const ValRef &v) {
    unsigned dst = instr.dst->id;
    if (v.isImm) {
      instr.op = Opcode::Const;
      instr.constValue = v.imm.resize(instr.dst->width, false);
      instr.operands.clear();
    } else {
      instr.op = Opcode::Copy;
      instr.operands = {Operand(VReg{v.reg, instr.dst->width})};
    }
    instr.memId = 0;
    defineReg(dst);
    ValRef bound = v;
    binding_[dst] = bound;
  }

  bool runBlock(BasicBlock &block) {
    bool changed = false;
    binding_.clear();
    avail_.clear();
    memVersion_.clear();
    lastStore_.clear();

    for (auto &instrPtr : block.instrs()) {
      Instr &instr = *instrPtr;

      // Resolve operands to canonical form.
      std::vector<ValRef> vals;
      vals.reserve(instr.operands.size());
      for (auto &op : instr.operands)
        vals.push_back(resolve(op));
      for (std::size_t i = 0; i < instr.operands.size(); ++i) {
        Operand replacement = toOperand(vals[i], instr.operands[i].width());
        if (replacement.isImm() != instr.operands[i].isImm() ||
            (replacement.isReg() &&
             replacement.reg().id != instr.operands[i].reg().id) ||
            (replacement.isImm() && instr.operands[i].isImm() &&
             !(replacement.imm() == instr.operands[i].imm()))) {
          instr.operands[i] = replacement;
          changed = true;
        }
      }

      switch (instr.op) {
      case Opcode::Const: {
        defineReg(instr.dst->id);
        ValRef v;
        v.isImm = true;
        v.imm = instr.constValue;
        v.width = instr.constValue.width();
        binding_[instr.dst->id] = v;
        continue;
      }
      case Opcode::Copy: {
        ValRef v = vals[0];
        defineReg(instr.dst->id);
        binding_[instr.dst->id] = v;
        continue;
      }
      case Opcode::Store: {
        unsigned mem = instr.memId;
        ++memVersion_[mem];
        lastStore_[mem] = {vals[0].repr(), vals[1],
                           memVersion_[mem]};
        continue;
      }
      case Opcode::Load: {
        unsigned mem = instr.memId;
        auto storeIt = lastStore_.find(mem);
        if (storeIt != lastStore_.end() &&
            storeIt->second.version == memVersion_[mem] &&
            storeIt->second.addrRepr == vals[0].repr() &&
            widthOf(storeIt->second.value) == instr.dst->width) {
          // Forward the stored value.
          ValRef v = storeIt->second.value;
          if (!v.isImm && version_[v.reg] != v.version) {
            // The source register changed since the store; cannot forward.
          } else {
            rewriteToValue(instr, v);
            changed = true;
            continue;
          }
        }
        std::string key = "load@" + std::to_string(mem) + "#" +
                          std::to_string(globalMemEpoch_) + "." +
                          std::to_string(memVersion_[mem]) + " " +
                          vals[0].repr();
        auto hit = lookup(key);
        if (hit) {
          rewriteToValue(instr, *hit);
          changed = true;
          continue;
        }
        defineReg(instr.dst->id);
        remember(key, *instr.dst);
        continue;
      }
      case Opcode::Call:
      case Opcode::Fork:
      case Opcode::ChanRecv:
      case Opcode::ChanSend:
      case Opcode::Delay:
        // Synchronization point: another process (or the callee) may touch
        // any memory.  Clobber everything.
        memVersion_.clear();
        lastStore_.clear();
        bumpAllMems();
        if (instr.dst)
          defineReg(instr.dst->id);
        continue;
      case Opcode::Br:
      case Opcode::CondBr:
      case Opcode::Ret:
      case Opcode::Nop:
        continue;
      default:
        break; // pure datapath below
      }

      if (!instr.dst)
        continue;

      // Constant folding.
      bool allImm = std::all_of(vals.begin(), vals.end(),
                                [](const ValRef &v) { return v.isImm; });
      if (allImm) {
        std::vector<BitVector> imms;
        for (const auto &v : vals)
          imms.push_back(v.imm);
        BitVector folded = IRExecutor::evalOp(instr.op, imms,
                                              instr.dst->width);
        ValRef v;
        v.isImm = true;
        v.imm = folded;
        v.width = folded.width();
        rewriteToValue(instr, v);
        changed = true;
        continue;
      }

      // Algebraic simplification / strength reduction.
      if (simplify(instr, vals)) {
        changed = true;
        continue;
      }

      // Common subexpression elimination.
      std::string key = cseKey(instr, vals);
      auto hit = lookup(key);
      if (hit && hit->width == instr.dst->width) {
        rewriteToValue(instr, *hit);
        changed = true;
        continue;
      }
      defineReg(instr.dst->id);
      remember(key, *instr.dst);
    }
    return changed;
  }

  static unsigned widthOf(const ValRef &v) { return v.width; }

  void bumpAllMems() { ++globalMemEpoch_; }

  std::string cseKey(const Instr &instr, std::vector<ValRef> &vals) {
    std::vector<std::string> reprs;
    for (const auto &v : vals)
      reprs.push_back(v.repr());
    if (isCommutative(instr.op) && reprs.size() == 2 &&
        reprs[1] < reprs[0])
      std::swap(reprs[0], reprs[1]);
    std::string key = opcodeName(instr.op);
    key += ":" + std::to_string(instr.dst->width);
    for (const auto &r : reprs)
      key += " " + r;
    return key;
  }

  std::optional<ValRef> lookup(const std::string &key) {
    auto it = avail_.find(key);
    if (it == avail_.end())
      return std::nullopt;
    const ValRef &v = it->second;
    if (!v.isImm && version_[v.reg] != v.version) {
      avail_.erase(it);
      return std::nullopt;
    }
    return v;
  }

  void remember(const std::string &key, VReg dst) {
    ValRef v;
    v.reg = dst.id;
    v.version = version_[dst.id];
    v.width = dst.width;
    avail_[key] = v;
  }

  // Algebraic identities.  `vals` are the resolved operands.
  bool simplify(Instr &instr, std::vector<ValRef> &vals) {
    auto isZero = [&](const ValRef &v) { return v.isImm && v.imm.isZero(); };
    auto isOne = [&](const ValRef &v) {
      return v.isImm && v.imm.eq(BitVector(v.imm.width(), 1));
    };
    auto sameReg = [&](const ValRef &a, const ValRef &b) {
      return !a.isImm && !b.isImm && a.reg == b.reg &&
             a.version == b.version;
    };
    switch (instr.op) {
    case Opcode::Add:
      if (isZero(vals[1])) { rewriteToValue(instr, vals[0]); return true; }
      if (isZero(vals[0])) { rewriteToValue(instr, vals[1]); return true; }
      return false;
    case Opcode::Sub:
      if (isZero(vals[1])) { rewriteToValue(instr, vals[0]); return true; }
      if (sameReg(vals[0], vals[1])) {
        ValRef z; z.isImm = true; z.imm = BitVector(instr.dst->width);
        z.width = instr.dst->width;
        rewriteToValue(instr, z);
        return true;
      }
      return false;
    case Opcode::Mul: {
      for (int i = 0; i < 2; ++i) {
        if (isZero(vals[i])) {
          ValRef z; z.isImm = true; z.imm = BitVector(instr.dst->width);
          z.width = instr.dst->width;
          rewriteToValue(instr, z);
          return true;
        }
        if (isOne(vals[i])) { rewriteToValue(instr, vals[1 - i]); return true; }
      }
      // Multiply by a power of two -> shift (strength reduction).
      for (int i = 0; i < 2; ++i) {
        if (vals[i].isImm && isPow2(vals[i].imm)) {
          unsigned amount = log2Of(vals[i].imm);
          instr.op = Opcode::Shl;
          instr.operands = {toOperand(vals[1 - i], instr.dst->width),
                            Operand(BitVector(32, amount))};
          defineReg(instr.dst->id);
          return true;
        }
      }
      return false;
    }
    case Opcode::DivU:
      if (vals[1].isImm && isPow2(vals[1].imm)) {
        instr.op = Opcode::ShrL;
        instr.operands = {toOperand(vals[0], instr.dst->width),
                          Operand(BitVector(32, log2Of(vals[1].imm)))};
        defineReg(instr.dst->id);
        return true;
      }
      if (isOne(vals[1])) { rewriteToValue(instr, vals[0]); return true; }
      return false;
    case Opcode::RemU:
      if (vals[1].isImm && isPow2(vals[1].imm)) {
        BitVector mask = vals[1].imm.sub(BitVector(vals[1].imm.width(), 1));
        instr.op = Opcode::And;
        instr.operands = {toOperand(vals[0], instr.dst->width),
                          Operand(mask)};
        defineReg(instr.dst->id);
        return true;
      }
      return false;
    case Opcode::And:
      for (int i = 0; i < 2; ++i)
        if (isZero(vals[i])) {
          ValRef z; z.isImm = true; z.imm = BitVector(instr.dst->width);
          z.width = instr.dst->width;
          rewriteToValue(instr, z);
          return true;
        }
      if (sameReg(vals[0], vals[1])) { rewriteToValue(instr, vals[0]); return true; }
      for (int i = 0; i < 2; ++i)
        if (vals[i].isImm && vals[i].imm.isAllOnes()) {
          rewriteToValue(instr, vals[1 - i]);
          return true;
        }
      return false;
    case Opcode::Or:
    case Opcode::Xor:
      for (int i = 0; i < 2; ++i)
        if (isZero(vals[i])) { rewriteToValue(instr, vals[1 - i]); return true; }
      if (instr.op == Opcode::Or && sameReg(vals[0], vals[1])) {
        rewriteToValue(instr, vals[0]);
        return true;
      }
      if (instr.op == Opcode::Xor && sameReg(vals[0], vals[1])) {
        ValRef z; z.isImm = true; z.imm = BitVector(instr.dst->width);
        z.width = instr.dst->width;
        rewriteToValue(instr, z);
        return true;
      }
      return false;
    case Opcode::Shl:
    case Opcode::ShrL:
    case Opcode::ShrA:
      if (isZero(vals[1])) { rewriteToValue(instr, vals[0]); return true; }
      return false;
    case Opcode::Mux:
      if (vals[0].isImm) {
        rewriteToValue(instr, vals[0].imm.isZero() ? vals[2] : vals[1]);
        return true;
      }
      if (sameReg(vals[1], vals[2])) { rewriteToValue(instr, vals[1]); return true; }
      return false;
    case Opcode::CmpEq:
    case Opcode::CmpLeS:
    case Opcode::CmpLeU:
      if (sameReg(vals[0], vals[1])) {
        ValRef t; t.isImm = true; t.imm = BitVector(1, 1); t.width = 1;
        rewriteToValue(instr, t);
        return true;
      }
      return false;
    case Opcode::CmpNe:
    case Opcode::CmpLtS:
    case Opcode::CmpLtU:
      if (sameReg(vals[0], vals[1])) {
        ValRef f; f.isImm = true; f.imm = BitVector(1, 0); f.width = 1;
        rewriteToValue(instr, f);
        return true;
      }
      return false;
    default:
      return false;
    }
  }

  struct StoreInfo {
    std::string addrRepr;
    ValRef value;
    unsigned version = 0;
  };

  Function &fn_;
  std::vector<unsigned> version_;
  std::map<unsigned, ValRef> binding_;
  std::map<std::string, ValRef> avail_;
  std::map<unsigned, unsigned> memVersion_;
  std::map<unsigned, StoreInfo> lastStore_;
  unsigned globalMemEpoch_ = 0;
};

} // namespace

bool localValueNumbering(ir::Function &fn) { return LVN(fn).run(); }

bool deadCodeElimination(ir::Function &fn) {
  Liveness liveness(fn);
  bool changed = false;
  for (auto &block : fn.blocks()) {
    const std::vector<unsigned> &out = liveness.liveOut(block.get());
    std::set<unsigned> live(out.begin(), out.end());
    auto &instrs = block->instrs();
    for (std::size_t i = instrs.size(); i-- > 0;) {
      Instr &instr = *instrs[i];
      bool removable = isPure(instr.op) || instr.op == Opcode::Const;
      if (removable && instr.dst && live.count(instr.dst->id) == 0) {
        instrs.erase(instrs.begin() + static_cast<long>(i));
        changed = true;
        continue;
      }
      if (instr.dst)
        live.erase(instr.dst->id);
      for (const auto &op : instr.operands)
        if (op.isReg())
          live.insert(op.reg().id);
    }
  }
  return changed;
}

bool simplifyCFG(ir::Function &fn) {
  bool changed = false;

  // 1. Fold constant conditional branches.
  for (auto &block : fn.blocks()) {
    Instr *term = block->terminator();
    if (term && term->op == Opcode::CondBr && term->operands[0].isImm()) {
      BasicBlock *target = term->operands[0].imm().isZero() ? term->target1
                                                            : term->target0;
      term->op = Opcode::Br;
      term->operands.clear();
      term->target0 = target;
      term->target1 = nullptr;
      changed = true;
    }
    // CondBr with identical targets.
    if (term && term->op == Opcode::CondBr && term->target0 == term->target1) {
      term->op = Opcode::Br;
      term->operands.clear();
      term->target1 = nullptr;
      changed = true;
    }
  }

  // 2. Thread jumps through empty blocks (a block whose only instruction is
  //    an unconditional branch).
  auto threadTarget = [&](BasicBlock *target) {
    std::set<BasicBlock *> seen;
    while (target && target->instrs().size() == 1 &&
           target->terminator() && target->terminator()->op == Opcode::Br &&
           seen.insert(target).second)
      target = target->terminator()->target0;
    return target;
  };
  for (auto &block : fn.blocks()) {
    Instr *term = block->terminator();
    if (!term)
      continue;
    if (term->target0) {
      BasicBlock *t = threadTarget(term->target0);
      if (t != term->target0) {
        term->target0 = t;
        changed = true;
      }
    }
    if (term->target1) {
      BasicBlock *t = threadTarget(term->target1);
      if (t != term->target1) {
        term->target1 = t;
        changed = true;
      }
    }
  }

  // 3. Remove unreachable blocks.
  {
    std::set<const BasicBlock *> reachable;
    std::vector<BasicBlock *> queue;
    if (fn.entry()) {
      reachable.insert(fn.entry());
      queue.push_back(fn.entry());
    }
    while (!queue.empty()) {
      BasicBlock *b = queue.back();
      queue.pop_back();
      for (BasicBlock *s : b->successors())
        if (reachable.insert(s).second)
          queue.push_back(s);
    }
    auto &blocks = fn.blocks();
    std::size_t before = blocks.size();
    blocks.erase(std::remove_if(blocks.begin(), blocks.end(),
                                [&](const std::unique_ptr<BasicBlock> &b) {
                                  return reachable.count(b.get()) == 0;
                                }),
                 blocks.end());
    if (blocks.size() != before)
      changed = true;
  }

  // 4. Merge a block into its unique successor when it is that successor's
  //    unique predecessor.
  {
    std::map<const BasicBlock *, unsigned> predCount;
    for (auto &block : fn.blocks())
      for (BasicBlock *s : block->successors())
        ++predCount[s];
    for (auto &block : fn.blocks()) {
      for (;;) {
        Instr *term = block->terminator();
        if (!term || term->op != Opcode::Br)
          break;
        BasicBlock *succ = term->target0;
        if (!succ || succ == block.get() || predCount[succ] != 1 ||
            succ == fn.entry())
          break;
        // Splice successor instructions into this block.
        block->instrs().pop_back(); // drop the Br
        for (auto &instr : succ->instrs())
          block->instrs().push_back(std::move(instr));
        succ->instrs().clear();
        changed = true;
        // The successor is now empty and unreachable; pass 3 on the next
        // iteration removes it.  Update pred counts for the new terminator.
      }
    }
    // Drop emptied blocks immediately.
    auto &blocks = fn.blocks();
    blocks.erase(std::remove_if(blocks.begin(), blocks.end(),
                                [&](const std::unique_ptr<BasicBlock> &b) {
                                  return b->instrs().empty() &&
                                         b.get() != fn.entry();
                                }),
                 blocks.end());
  }

  return changed;
}

bool foldDecidedBranches(ir::Function &fn,
                         const std::map<const ir::Instr *, bool> &decided) {
  bool changed = false;
  for (auto &block : fn.blocks()) {
    ir::Instr *term = block->terminator();
    if (!term || term->op != ir::Opcode::CondBr)
      continue;
    auto it = decided.find(term);
    if (it == decided.end())
      continue;
    term->op = ir::Opcode::Br;
    term->target0 = it->second ? term->target0 : term->target1;
    term->target1 = nullptr;
    term->operands.clear();
    changed = true;
  }
  if (changed)
    simplifyCFG(fn);
  return changed;
}

std::size_t instructionCount(const ir::Function &fn) {
  std::size_t n = 0;
  for (const auto &block : fn.blocks())
    for (const auto &instr : block->instrs())
      if (instr->op != Opcode::Nop)
        ++n;
  return n;
}

std::size_t instructionCount(const ir::Module &module) {
  std::size_t n = 0;
  for (const auto &fn : module.functions())
    n += instructionCount(*fn);
  return n;
}

bool optimizeModule(ir::Module &module, const IrOptOptions &options) {
  bool any = false;
  for (auto &fn : module.functions()) {
    for (unsigned i = 0; i < options.maxIterations; ++i) {
      bool changed = false;
      if (options.valueNumbering)
        changed |= localValueNumbering(*fn);
      if (options.deadCode)
        changed |= deadCodeElimination(*fn);
      if (options.cfg)
        changed |= simplifyCFG(*fn);
      if (!changed)
        break;
      any = true;
    }
  }
  return any;
}

} // namespace c2h::opt
