#include "rtl/sim.h"

#include "ir/exec.h"
#include "support/wordops.h"

#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>

namespace c2h::rtl {

using ir::Opcode;

namespace {

std::atomic<std::uint64_t> activationStepCount{0};

// How a decoded operation executes.
enum class Kind : std::uint8_t {
  Word, // datapath op whose operands and result fit one word
  Wide, // any other datapath op: IRExecutor::evalOp
  Const,
  Load,
  Store,
  Send,
  Recv,
  Call,
  Fork,
  Delay,
};

// One operation of a control step with its operands resolved to register
// slots: a process's registers are its vregs, then one slot per immediate.
struct Op {
  Opcode opcode = Opcode::Nop;
  Kind kind = Kind::Wide;
  bool hasDst = false;
  unsigned latency = 0;  // done - start: 0 writes now, else a pending write
  unsigned dst = 0;      // destination slot
  unsigned width = 1;    // Word: result width; Recv, Call: dst width
  unsigned dstWidth = 1; // the dst vreg's width (evalOp's dstWidth)
  // The first three operand slots and the widths the word path computes
  // at; an op with fewer operands repeats `a`.  A register holding a value
  // of another width sends the op down the Wide path.
  unsigned a = 0, b = 0, c = 0;
  unsigned aw = 1, bw = 1, cw = 1;
  unsigned index = 0; // memory, channel or callee process; delay cycles
  // Every operand slot (Wide, Call) or forked process index (Fork), as a
  // range of Process::lists.
  unsigned first = 0, count = 0;
  const ir::Instr *instr = nullptr; // for names in error texts
};

enum class Term : std::uint8_t { None, Br, CondBr, Ret };

// A block's FSM states: the ops of step s run from
// ops[steps[firstStep + s]] up to ops[steps[firstStep + s + 1]], in
// program order.
struct Block {
  bool scheduled = false;
  Term term = Term::None;
  bool hasValue = false; // Ret with an operand
  unsigned length = 1;
  unsigned firstStep = 0;
  unsigned value = 0;                // CondBr condition or Ret value slot
  unsigned target0 = 0, target1 = 0; // block indices
};

struct Process {
  const ir::Function *fn = nullptr; // null: no FSMD was built
  std::vector<BitVector> initRegs;  // zero vregs, then the immediates
  std::vector<Block> blocks; // by block id, then one unscheduled block
  std::vector<unsigned> steps;
  std::vector<Op> ops;
  std::vector<unsigned> lists;
  unsigned entry = 0;
};

// True when `instr` (a datapath op) can run on words: every operand and the
// result fit in 64 bits and the widths satisfy the preconditions of the
// BitVector operation evalOp would call.  Sets the op's word fields.
bool decodeWord(const ir::Instr &instr, Op &op) {
  const auto &ops = instr.operands;
  for (const auto &o : ops)
    if (o.width() > 64)
      return false;
  const unsigned n = static_cast<unsigned>(ops.size());
  const unsigned dw = instr.dst->width;
  unsigned arity = 2;
  switch (instr.op) {
  case Opcode::Copy:
  case Opcode::Not:
  case Opcode::Neg:
    arity = 1;
    op.width = n >= 1 ? ops[0].width() : 0;
    break;
  case Opcode::Add: case Opcode::Sub: case Opcode::Mul:
  case Opcode::DivS: case Opcode::DivU: case Opcode::RemS:
  case Opcode::RemU: case Opcode::And: case Opcode::Or: case Opcode::Xor:
    if (n < 2 || ops[0].width() != ops[1].width())
      return false;
    op.width = ops[0].width();
    break;
  case Opcode::CmpEq: case Opcode::CmpNe: case Opcode::CmpLtS:
  case Opcode::CmpLtU: case Opcode::CmpLeS: case Opcode::CmpLeU:
    if (n < 2 || ops[0].width() != ops[1].width())
      return false;
    op.width = 1;
    break;
  case Opcode::Shl: case Opcode::ShrL: case Opcode::ShrA:
    op.width = n >= 2 ? ops[0].width() : 0;
    break;
  case Opcode::Mux:
    arity = 3;
    op.width = n >= 3 ? 1 : 0; // the chosen operand's width, at run time
    break;
  case Opcode::Trunc:
    arity = 1;
    op.width = n >= 1 && dw <= ops[0].width() ? dw : 0;
    break;
  case Opcode::ZExt: case Opcode::SExt:
    arity = 1;
    op.width = n >= 1 && dw >= ops[0].width() && dw <= 64 ? dw : 0;
    break;
  default:
    return false;
  }
  if (op.width == 0)
    return false;
  op.bw = arity >= 2 ? ops[1].width() : op.aw;
  op.cw = arity >= 3 ? ops[2].width() : op.aw;
  if (arity < 2)
    op.b = op.a;
  if (arity < 3)
    op.c = op.a;
  return true;
}

// The word path of one datapath op: false when a register holds a value of
// another width than the op was decoded for (evalOp then decides).
// Otherwise sets `width` and `out` (not yet masked to `width`).
inline bool evalWord(const Op &op, const std::vector<BitVector> &regs,
                     unsigned &width, std::uint64_t &out) {
  const BitVector &ra = regs[op.a], &rb = regs[op.b], &rc = regs[op.c];
  if ((ra.width() != op.aw) | (rb.width() != op.bw) | (rc.width() != op.cw))
    return false;
  const std::uint64_t x = ra.word(), y = rb.word();
  const unsigned w = op.aw;
  width = op.width;
  switch (op.opcode) {
  case Opcode::Copy: out = x; return true;
  case Opcode::Add: out = x + y; return true;
  case Opcode::Sub: out = x - y; return true;
  case Opcode::Mul: out = x * y; return true;
  case Opcode::DivS: out = divWord(x, y, w, true); return true;
  case Opcode::DivU: out = divWord(x, y, w, false); return true;
  case Opcode::RemS: out = modWord(x, y, w, true); return true;
  case Opcode::RemU: out = modWord(x, y, w, false); return true;
  case Opcode::And: out = x & y; return true;
  case Opcode::Or: out = x | y; return true;
  case Opcode::Xor: out = x ^ y; return true;
  case Opcode::Not: out = ~x; return true;
  case Opcode::Neg: out = 0 - x; return true;
  case Opcode::Shl:
  case Opcode::ShrL:
  case Opcode::ShrA: {
    // IRExecutor's clamp: amounts past the width shift everything out.
    const unsigned amt = y >= w ? w : static_cast<unsigned>(y);
    if (op.opcode == Opcode::ShrA)
      out = ashrWord(x, amt, w);
    else if (amt >= w)
      out = 0;
    else
      out = op.opcode == Opcode::Shl ? x << amt : x >> amt;
    return true;
  }
  case Opcode::CmpEq: out = x == y; return true;
  case Opcode::CmpNe: out = x != y; return true;
  case Opcode::CmpLtU: out = x < y; return true;
  case Opcode::CmpLeU: out = x <= y; return true;
  case Opcode::CmpLtS:
  case Opcode::CmpLeS: {
    const auto sx = static_cast<std::int64_t>(extWord(x, w, 64, true));
    const auto sy = static_cast<std::int64_t>(extWord(y, w, 64, true));
    out = op.opcode == Opcode::CmpLtS ? sx < sy : sx <= sy;
    return true;
  }
  case Opcode::Mux:
    if (x != 0) {
      out = y;
      width = op.bw;
    } else {
      out = rc.word();
      width = op.cw;
    }
    return true;
  case Opcode::Trunc:
  case Opcode::ZExt: out = x; return true;
  case Opcode::SExt: out = extWord(x, w, op.width, true); return true;
  default: return false;
  }
}

// `dst = src` without a heap round trip when `src` fits a word.
inline void copyValue(BitVector &dst, const BitVector &src) {
  if (src.isInline())
    dst.assignWord(src.width(), src.word());
  else
    dst = src;
}

Process decodeProcess(const ir::Module &module, const ir::Function &fn,
                      const FsmdProcess &fsmd) {
  Process p;
  p.fn = &fn;
  p.initRegs.assign(fn.vregCount(), BitVector(1));
  // A branch to a block this process did not schedule (or does not own)
  // goes to the trailing unscheduled block, where running fails.
  const unsigned ids = fn.blockIdCount();
  std::vector<const ir::BasicBlock *> byId(ids, nullptr);
  for (const auto &block : fn.blocks())
    if (block->id() < ids)
      byId[block->id()] = block.get();
  auto blockIndex = [&](const ir::BasicBlock *block) {
    return block && block->id() < ids && byId[block->id()] == block
               ? block->id()
               : ids;
  };
  p.blocks.assign(ids + 1, Block{});
  p.entry = blockIndex(fn.entry());

  auto slot = [&](const ir::Operand &o) -> unsigned {
    if (o.isReg())
      return o.reg().id;
    p.initRegs.push_back(o.imm());
    return static_cast<unsigned>(p.initRegs.size() - 1);
  };
  auto listOperands = [&](const ir::Instr &instr, Op &op) {
    op.first = static_cast<unsigned>(p.lists.size());
    op.count = static_cast<unsigned>(instr.operands.size());
    for (const auto &o : instr.operands)
      p.lists.push_back(slot(o));
  };

  auto decodeOp = [&](const OpSlot &os) {
    const ir::Instr &instr = *os.instr;
    Op op;
    op.opcode = instr.op;
    op.instr = &instr;
    op.latency = os.done - os.start;
    op.hasDst = instr.dst.has_value();
    if (op.hasDst) {
      op.dst = instr.dst->id;
      op.width = op.dstWidth = instr.dst->width;
    }
    switch (instr.op) {
    case Opcode::Const:
      op.kind = Kind::Const;
      op.a = slot(instr.constValue);
      break;
    case Opcode::Load:
      op.kind = Kind::Load;
      op.a = slot(instr.operands[0]);
      op.index = instr.memId;
      break;
    case Opcode::Store:
      op.kind = Kind::Store;
      op.a = slot(instr.operands[0]);
      op.b = slot(instr.operands[1]);
      op.index = instr.memId;
      break;
    case Opcode::ChanSend:
      op.kind = Kind::Send;
      op.a = slot(instr.operands[0]);
      op.index = instr.chanId;
      break;
    case Opcode::ChanRecv:
      op.kind = Kind::Recv;
      op.index = instr.chanId;
      break;
    case Opcode::Call: {
      op.kind = Kind::Call;
      const ir::Function *callee = module.findFunction(instr.callee);
      op.index = callee ? module.indexOf(callee) : ~0u;
      listOperands(instr, op);
      break;
    }
    case Opcode::Fork:
      op.kind = Kind::Fork;
      op.first = static_cast<unsigned>(p.lists.size());
      op.count = static_cast<unsigned>(instr.processes.size());
      p.lists.insert(p.lists.end(), instr.processes.begin(),
                     instr.processes.end());
      break;
    case Opcode::Delay:
      op.kind = Kind::Delay;
      op.index = std::max(1u, instr.delayCycles);
      break;
    case Opcode::Nop:
      return; // no register transfer
    default: {
      op.kind = Kind::Wide;
      listOperands(instr, op);
      const unsigned n = std::min(op.count, 3u);
      unsigned *slots[] = {&op.a, &op.b, &op.c};
      unsigned *widths[] = {&op.aw, &op.bw, &op.cw};
      for (unsigned i = 0; i < n; ++i) {
        *slots[i] = p.lists[op.first + i];
        *widths[i] = instr.operands[i].width();
      }
      if (op.hasDst && n >= 1 && decodeWord(instr, op))
        op.kind = Kind::Word;
      break;
    }
    }
    p.ops.push_back(op);
  };

  std::vector<const OpSlot *> order;
  p.steps.push_back(0);
  for (const auto &blockPtr : fn.blocks()) {
    const ir::BasicBlock &bb = *blockPtr;
    auto it = fsmd.blocks.find(&bb);
    if (it == fsmd.blocks.end() || blockIndex(&bb) == ids)
      continue;
    const FsmdBlock &fb = it->second;
    Block &blk = p.blocks[bb.id()];
    blk.scheduled = true;
    blk.length = fb.length;
    blk.firstStep = static_cast<unsigned>(p.steps.size() - 1);
    order.clear();
    for (const OpSlot &os : fb.ops)
      if (!os.instr->isTerminator() && os.start < fb.length)
        order.push_back(&os);
    std::stable_sort(order.begin(), order.end(),
                     [](const OpSlot *x, const OpSlot *y) {
                       return x->start < y->start;
                     });
    std::size_t next = 0;
    for (unsigned s = 0; s < fb.length; ++s) {
      for (; next < order.size() && order[next]->start == s; ++next)
        decodeOp(*order[next]);
      p.steps.push_back(static_cast<unsigned>(p.ops.size()));
    }

    const ir::Instr *term = bb.terminator();
    if (!term)
      continue;
    switch (term->op) {
    case Opcode::Br:
      blk.term = Term::Br;
      blk.target0 = blockIndex(term->target0);
      break;
    case Opcode::CondBr:
      if (term->operands.empty())
        break;
      blk.term = Term::CondBr;
      blk.value = slot(term->operands[0]);
      blk.target0 = blockIndex(term->target0);
      blk.target1 = blockIndex(term->target1);
      break;
    case Opcode::Ret:
      blk.term = Term::Ret;
      blk.hasValue = !term->operands.empty();
      if (blk.hasValue)
        blk.value = slot(term->operands[0]);
      break;
    default:
      break;
    }
  }
  return p;
}

// A multi-cycle result waiting for its commit cycle.  A value wider than
// 64 bits waits in Activation::pendingWide, and `word` is its index there.
struct PendingWrite {
  std::uint64_t dueCycle = 0;
  unsigned reg = 0;
  unsigned width = 1;
  std::uint64_t word = 0;
};

enum class Status { Running, WaitChan, WaitCall, WaitFork, Delaying, Done,
                    Failed };

struct Activation {
  const Process *proc = nullptr;
  unsigned block = 0;
  unsigned step = 0;
  std::vector<BitVector> regs;
  std::vector<PendingWrite> pending;
  std::vector<BitVector> pendingWide; // emptied with `pending`
  Status status = Status::Running;
  std::string error;

  // WaitChan bookkeeping.
  bool chanIsSend = false;
  unsigned chanId = 0;
  BitVector chanValue{1};
  unsigned chanDst = 0; // slot of a receive
  unsigned chanDstWidth = 1;

  // WaitCall / WaitFork / Delaying bookkeeping.
  bool callHasDst = false;
  unsigned callDst = 0;
  unsigned callDstWidth = 1;
  Activation *callee = nullptr;
  std::vector<Activation *> waitingOn;
  std::uint64_t wakeCycle = 0;

  BitVector returnValue{1};
  bool advancedThisCycle = false;
};

} // namespace

std::uint64_t activationSteps() {
  return activationStepCount.load(std::memory_order_relaxed);
}

struct Simulator::Impl {
  const Design &design;
  SimOptions options;
  std::vector<std::vector<BitVector>> mems;
  // Decoded processes by function index (fn null: no FSMD built).
  std::vector<Process> procs;
  // Every activation ever made; `spare` are free for reuse.
  std::vector<std::unique_ptr<Activation>> pool;
  std::vector<Activation *> spare;
  // The activations still running, in creation order (the order every
  // phase of a cycle visits them).  Finished ones leave at the end of the
  // cycle; their parent still reads them, then hands them to `spare`.
  std::vector<Activation *> live;
  // Channel phase: this cycle's offers per channel id, and the channels
  // that have one.
  std::vector<std::vector<Activation *>> senders, receivers;
  std::vector<unsigned> offered;
  std::vector<BitVector> operandBuf; // evalOp's operands, reused
  std::uint64_t cycle = 0;
  std::uint64_t steps = 0;

  Impl(const Design &d, SimOptions o) : design(d), options(o) {
    initMems();
    const auto &fns = design.module->functions();
    procs.resize(fns.size());
    std::size_t chans = design.module->chans().size();
    for (std::size_t i = 0; i < fns.size(); ++i) {
      const FsmdProcess *fsmd = design.processFor(fns[i].get());
      if (!fsmd)
        continue;
      procs[i] = decodeProcess(*design.module, *fns[i], *fsmd);
      for (const Op &op : procs[i].ops)
        if (op.kind == Kind::Send || op.kind == Kind::Recv)
          chans = std::max<std::size_t>(chans, op.index + 1);
    }
    senders.resize(chans);
    receivers.resize(chans);
  }

  void initMems() {
    mems.clear();
    for (const auto &mem : design.module->mems()) {
      std::vector<BitVector> cells(mem.depth,
                                   BitVector(std::max(1u, mem.width)));
      for (std::size_t i = 0; i < mem.init.size() && i < cells.size(); ++i)
        cells[i] = mem.init[i];
      mems.push_back(std::move(cells));
    }
  }

  const Process *process(unsigned fnIndex) const {
    return fnIndex < procs.size() && procs[fnIndex].fn ? &procs[fnIndex]
                                                       : nullptr;
  }

  Activation &newActivation(const Process &proc) {
    Activation *act;
    if (spare.empty()) {
      pool.push_back(std::make_unique<Activation>());
      act = pool.back().get();
    } else {
      act = spare.back();
      spare.pop_back();
    }
    act->proc = &proc;
    act->block = proc.entry;
    act->step = 0;
    act->regs = proc.initRegs;
    act->pending.clear();
    act->pendingWide.clear();
    act->status = Status::Running;
    act->error.clear();
    act->callee = nullptr;
    act->waitingOn.clear();
    act->returnValue = BitVector(1);
    act->advancedThisCycle = false;
    live.push_back(act);
    return *act;
  }

  void failAct(Activation &act, std::string message) {
    act.status = Status::Failed;
    act.error = std::move(message);
  }

  void defer(Activation &act, const Op &op, unsigned width,
             std::uint64_t word) {
    act.pending.push_back({cycle + op.latency, op.dst, width, word});
  }

  void defer(Activation &act, const Op &op, const BitVector &value) {
    if (value.isInline()) {
      defer(act, op, value.width(), value.word());
      return;
    }
    act.pendingWide.push_back(value);
    defer(act, op, value.width(), act.pendingWide.size() - 1);
  }

  static void commit(Activation &act, const PendingWrite &p) {
    if (p.width <= 64)
      act.regs[p.reg].assignWord(p.width, p.word);
    else
      act.regs[p.reg] = std::move(act.pendingWide[p.word]);
  }

  // Commit the pending writes due by this cycle, in issue order.
  void commitPending(Activation &act) {
    std::size_t keep = 0;
    for (std::size_t i = 0; i < act.pending.size(); ++i) {
      const PendingWrite &p = act.pending[i];
      if (p.dueCycle <= cycle)
        commit(act, p);
      else
        act.pending[keep++] = p;
    }
    act.pending.resize(keep);
    if (keep == 0)
      act.pendingWide.clear();
  }

  void write(Activation &act, const Op &op, BitVector value) {
    if (op.latency == 0)
      act.regs[op.dst] = std::move(value);
    else
      defer(act, op, value);
  }

  void evalWide(Activation &act, const Op &op) {
    const unsigned *slots = act.proc->lists.data() + op.first;
    operandBuf.resize(op.count);
    for (unsigned i = 0; i < op.count; ++i)
      operandBuf[i] = act.regs[slots[i]];
    write(act, op,
          ir::IRExecutor::evalOp(op.opcode, operandBuf, op.dstWidth));
  }

  static const Block &scheduledBlock(const Activation &act) {
    const Block &blk = act.proc->blocks[act.block];
    if (!blk.scheduled)
      throw std::out_of_range("rtl simulation: a block of " +
                              act.proc->fn->name() + " has no schedule");
    return blk;
  }

  // Leave the current step: advance within the block, or commit every
  // pending write and follow the terminator.
  void finishStep(Activation &act, const Block &blk) {
    if (act.step + 1 < blk.length) {
      ++act.step;
      return;
    }
    if (blk.term == Term::None) {
      failAct(act, "block without terminator");
      return;
    }
    for (const PendingWrite &p : act.pending)
      commit(act, p);
    act.pending.clear();
    act.pendingWide.clear();
    switch (blk.term) {
    case Term::Br:
      act.block = blk.target0;
      break;
    case Term::CondBr: {
      const BitVector &cond = act.regs[blk.value];
      bool taken = cond.isInline() ? cond.word() != 0 : !cond.isZero();
      act.block = taken ? blk.target0 : blk.target1;
      break;
    }
    default: // Ret
      if (blk.hasValue)
        act.returnValue = act.regs[blk.value];
      act.status = Status::Done;
      break;
    }
    act.step = 0;
    act.advancedThisCycle = true;
  }

  // A barrier op (call/fork/delay/channel) completed.
  void resume(Activation &act) {
    act.status = Status::Running;
    act.advancedThisCycle = true;
    finishStep(act, scheduledBlock(act));
  }

  // Execute one cycle of `act`.  Channel operations only post offers here;
  // matching happens afterwards in the channel phase.
  void stepActivation(Activation &act) {
    ++steps;
    act.advancedThisCycle = false;
    if (!act.pending.empty())
      commitPending(act);

    switch (act.status) {
    case Status::Done:
    case Status::Failed:
    case Status::WaitChan:
      return; // the channel phase advances these
    case Status::Delaying:
      // Waiting for a known wake cycle is progress, not a stall.
      act.advancedThisCycle = true;
      return;
    case Status::WaitCall: {
      Activation &callee = *act.callee;
      if (callee.status == Status::Failed) {
        failAct(act, callee.error);
        return;
      }
      if (callee.status != Status::Done)
        return;
      if (act.callHasDst)
        act.regs[act.callDst] =
            callee.returnValue.resize(act.callDstWidth, false);
      spare.push_back(&callee);
      resume(act);
      return;
    }
    case Status::WaitFork: {
      for (Activation *child : act.waitingOn) {
        if (child->status == Status::Failed) {
          failAct(act, child->error);
          return;
        }
        if (child->status != Status::Done)
          return;
      }
      spare.insert(spare.end(), act.waitingOn.begin(), act.waitingOn.end());
      act.waitingOn.clear();
      resume(act);
      return;
    }
    case Status::Running:
      break;
    }

    const Process &proc = *act.proc;
    const Block &blk = scheduledBlock(act);
    std::vector<BitVector> &regs = act.regs;
    const unsigned *bounds = proc.steps.data() + blk.firstStep + act.step;
    const Op *op = proc.ops.data() + bounds[0];
    const Op *end = proc.ops.data() + bounds[1];
    // Barriers (call/fork/channel/delay) are always the last operation of
    // their step — the dependence graph orders everything else around
    // them — so returning at one never abandons unissued same-step ops.
    for (; op != end; ++op) {
      switch (op->kind) {
      case Kind::Word: {
        unsigned width;
        std::uint64_t value;
        if (!evalWord(*op, regs, width, value))
          evalWide(act, *op);
        else if (op->latency == 0)
          regs[op->dst].assignWord(width, value);
        else
          defer(act, *op, width, value);
        break;
      }
      case Kind::Wide:
        evalWide(act, *op);
        break;
      case Kind::Const:
        copyValue(regs[op->dst], regs[op->a]);
        break;
      case Kind::Load: {
        const auto &mem = mems.at(op->index);
        std::uint64_t addr = regs[op->a].word();
        if (addr >= mem.size()) {
          failAct(act, "load out of bounds in " + proc.fn->name());
          return;
        }
        if (op->latency == 0)
          copyValue(regs[op->dst], mem[addr]);
        else
          defer(act, *op, mem[addr]);
        break;
      }
      case Kind::Store: {
        auto &mem = mems.at(op->index);
        std::uint64_t addr = regs[op->a].word();
        if (addr >= mem.size()) {
          failAct(act, "store out of bounds in " + proc.fn->name());
          return;
        }
        BitVector &cell = mem[addr];
        const BitVector &value = regs[op->b];
        if (cell.isInline() && value.isInline())
          cell.setWord(value.word()); // the resize to the cell's width
        else
          cell = value.resize(cell.width(), false);
        break;
      }
      case Kind::Send:
        act.status = Status::WaitChan;
        act.chanIsSend = true;
        act.chanId = op->index;
        copyValue(act.chanValue, regs[op->a]);
        return;
      case Kind::Recv:
        act.status = Status::WaitChan;
        act.chanIsSend = false;
        act.chanId = op->index;
        act.chanDst = op->dst;
        act.chanDstWidth = op->width;
        return;
      case Kind::Call: {
        const Process *callee = process(op->index);
        if (!callee) {
          failAct(act, "call to unknown/unbuilt function " +
                           op->instr->callee);
          return;
        }
        Activation &sub = newActivation(*callee);
        const auto &params = callee->fn->params();
        const unsigned *slots = proc.lists.data() + op->first;
        for (std::size_t i = 0; i < op->count && i < params.size(); ++i)
          sub.regs[params[i].id] =
              regs[slots[i]].resize(params[i].width, false);
        act.status = Status::WaitCall;
        act.callee = &sub;
        act.callHasDst = op->hasDst;
        act.callDst = op->dst;
        act.callDstWidth = op->width;
        return;
      }
      case Kind::Fork: {
        act.waitingOn.clear();
        const unsigned *fns = proc.lists.data() + op->first;
        for (unsigned i = 0; i < op->count; ++i) {
          const Process *child = process(fns[i]);
          if (!child) {
            failAct(act, "fork of unbuilt process");
            return;
          }
          act.waitingOn.push_back(&newActivation(*child));
        }
        act.status = Status::WaitFork;
        return;
      }
      case Kind::Delay:
        act.status = Status::Delaying;
        act.wakeCycle = cycle + op->index;
        return;
      }
    }

    act.advancedThisCycle = true;
    finishStep(act, blk);
  }

  // Channel rendezvous phase: match one sender and one receiver per
  // channel per cycle, in creation order on each side.
  void matchChannels() {
    for (Activation *act : live) {
      if (act->status != Status::WaitChan)
        continue;
      auto &side = act->chanIsSend ? senders : receivers;
      if (senders[act->chanId].empty() && receivers[act->chanId].empty())
        offered.push_back(act->chanId);
      side[act->chanId].push_back(act);
    }
    for (unsigned chan : offered) {
      auto &ss = senders[chan];
      auto &rs = receivers[chan];
      std::size_t pairs = std::min(ss.size(), rs.size());
      for (std::size_t i = 0; i < pairs; ++i) {
        Activation &s = *ss[i];
        Activation &r = *rs[i];
        r.regs[r.chanDst] = s.chanValue.resize(r.chanDstWidth, false);
        resume(s);
        resume(r);
      }
      ss.clear();
      rs.clear();
    }
    offered.clear();
  }

  SimResult run(const std::string &top, const std::vector<BitVector> &args) {
    SimResult result;
    spare.clear();
    for (auto &act : pool)
      spare.push_back(act.get());
    live.clear();
    cycle = 0;
    steps = 0;

    const ir::Function *fn = design.module->findFunction(top);
    if (!fn) {
      result.error = "no function named '" + top + "'";
      return result;
    }
    const Process *topProc = process(design.module->indexOf(fn));
    if (!topProc) {
      result.error = "top function was not built";
      return result;
    }
    Activation &main = newActivation(*topProc);
    if (args.size() != fn->params().size()) {
      result.error = "argument count mismatch";
      return result;
    }
    for (std::size_t i = 0; i < args.size(); ++i)
      main.regs[fn->params()[i].id] =
          args[i].resize(fn->params()[i].width, false);

    std::uint64_t stalled = 0;
    while (main.status != Status::Done) {
      if (main.status == Status::Failed) {
        result.error = main.error;
        result.cycles = cycle;
        return result;
      }
      if (cycle >= options.maxCycles) {
        result.error = "cycle budget exceeded after " +
                       std::to_string(cycle) + " cycles";
        result.verdict.kind = guard::Kind::CycleLimit;
        result.verdict.stage = "rtl.sim";
        result.verdict.cycles = cycle;
        result.cycles = cycle;
        return result;
      }
      if (options.budget && (cycle & 1023) == 0) {
        try {
          options.budget->chargeCycles(1024, "rtl.sim");
          options.budget->checkDeadline("rtl.sim");
        } catch (const guard::BudgetExceeded &e) {
          result.verdict = e.verdict;
          result.error = e.verdict.str();
          result.cycles = cycle;
          return result;
        }
      }
      const std::size_t count = live.size(); // children start next cycle
      for (std::size_t i = 0; i < count; ++i)
        stepActivation(*live[i]);
      // Delays release, then channels match, once every process stepped.
      bool offers = false;
      for (Activation *act : live) {
        if (act->status == Status::Delaying && cycle >= act->wakeCycle)
          resume(*act);
        else if (act->status == Status::WaitChan)
          offers = true;
      }
      if (offers)
        matchChannels();

      bool progressed = live.size() != count;
      for (std::size_t i = 0; i < count; ++i)
        progressed |= live[i]->advancedThisCycle;
      live.erase(std::remove_if(live.begin(), live.end(),
                                [](const Activation *act) {
                                  return act->status == Status::Done ||
                                         act->status == Status::Failed;
                                }),
                 live.end());
      stalled = progressed ? 0 : stalled + 1;
      if (stalled > options.stallLimit) {
        result.error = "deadlock: no process advanced for " +
                       std::to_string(options.stallLimit) + " cycles";
        result.verdict.kind = guard::Kind::Deadlock;
        result.verdict.stage = "rtl.sim";
        result.verdict.cycles = cycle;
        result.cycles = cycle;
        return result;
      }
      ++cycle;
    }
    result.ok = true;
    result.cycles = cycle;
    result.returnValue = main.returnValue;
    return result;
  }
};

Simulator::Simulator(const Design &design, SimOptions options)
    : impl_(std::make_shared<Impl>(design, options)) {}

SimResult Simulator::run(const std::vector<BitVector> &args) {
  SimResult result = impl_->run(impl_->design.top, args);
  activationStepCount.fetch_add(impl_->steps, std::memory_order_relaxed);
  return result;
}

std::vector<BitVector> Simulator::readGlobal(const std::string &name) const {
  const ir::GlobalSlot *slot = impl_->design.module->findGlobal(name);
  if (!slot)
    return {};
  std::vector<BitVector> out;
  const auto &mem = impl_->mems.at(slot->memId);
  for (std::uint64_t i = 0; i < slot->words && slot->base + i < mem.size();
       ++i)
    out.push_back(mem[slot->base + i].trunc(slot->width));
  return out;
}

void Simulator::writeGlobal(const std::string &name,
                            const std::vector<BitVector> &cells) {
  const ir::GlobalSlot *slot = impl_->design.module->findGlobal(name);
  if (!slot)
    return;
  auto &mem = impl_->mems.at(slot->memId);
  unsigned cellWidth = impl_->design.module->mems()[slot->memId].width;
  for (std::uint64_t i = 0;
       i < cells.size() && i < slot->words && slot->base + i < mem.size();
       ++i)
    mem[slot->base + i] =
        cells[i].resize(slot->width, false).resize(cellWidth, false);
}

void Simulator::resetMemories() { impl_->initMems(); }

} // namespace c2h::rtl
