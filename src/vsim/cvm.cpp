#include "vsim/cvm.h"

#include "vsim/parser.h"
#include "vsim/readmem.h"
#include "vsim/wordops.h"

#include <algorithm>

namespace c2h::vsim {

namespace {

// The word-path rules (extension, shift amount, div/mod, arithmetic
// shift, compare) live in wordops.h; the wide paths use BitVector.

inline bool truthy(const BitVector &v) {
  return v.isInline() ? v.word() != 0 : !v.isZero();
}

// The shift-amount rule of wordops.h, extended to wide amounts.
inline unsigned shiftAmount(const BitVector &amt, unsigned width) {
  if (amt.isInline())
    return shiftAmountWord(amt.word(), width);
  return amt.activeBits() > 31 ? width
                               : static_cast<unsigned>(amt.toUint64());
}

} // namespace

CompiledSimulation::CompiledSimulation(
    std::shared_ptr<const CompiledModel> cm)
    : cm_(std::move(cm)) {
  nets_ = cm_->init.nets;
  mems_ = cm_->init.mems;
  regs_.reserve(cm_->tempWidth.size());
  for (unsigned w : cm_->tempWidth)
    regs_.emplace_back(w);
  // The image stores committed register state; wire slots are lazily
  // evaluated in the event engine and may be stale in the snapshot, so
  // every wire must be recomputed by the first sweep.
  dirty_.assign(cm_->wires.size(), 1);
  minDirty_ = 0;
  for (std::size_t i = 0; i < cm_->threads.size(); ++i) {
    const ThreadProgram &tp = cm_->threads[i];
    TbThread t;
    t.index = static_cast<std::uint32_t>(i);
    switch (tp.kind) {
    case Process::Kind::Clocked:
      t.state = TbThread::State::AtEdge;
      t.edgeNet = tp.clockNet;
      break;
    case Process::Kind::DelayLoop:
      t.state = TbThread::State::AtTime;
      t.wakeTime = tp.period;
      break;
    case Process::Kind::Initial:
      t.state = TbThread::State::Ready;
      break;
    }
    threads_.push_back(t);
  }
  if (!cm_->initError.empty()) {
    // The reference capture of this model's `initial` blocks failed; the
    // event engine reports the same error, so surface it verbatim.
    error_ = cm_->initError;
    verdict_ = cm_->initVerdict;
  }
}

void CompiledSimulation::reset() {
  error_.clear();
  verdict_ = guard::Verdict{};
  pendingSteps_ = 0;
  nba_.clear();
  // Element-wise copies reuse existing storage (no reallocation); VM
  // registers are def-before-use scratch, so stale values never leak
  // (thread temps live across suspensions, but every resume path
  // re-enters at pc 0 after a reset, re-initializing them).
  for (std::size_t i = 0; i < nets_.size(); ++i)
    nets_[i] = cm_->init.nets[i];
  for (std::size_t i = 0; i < mems_.size(); ++i)
    for (std::size_t j = 0; j < mems_[i].size(); ++j)
      mems_[i][j] = cm_->init.mems[i][j];
  std::fill(dirty_.begin(), dirty_.end(), static_cast<std::uint8_t>(1));
  minDirty_ = 0;
  posedges_.clear();
  output_.clear();
  time_ = 0;
  finished_ = false;
  stop_ = false;
  for (TbThread &t : threads_) {
    const ThreadProgram &tp = cm_->threads[t.index];
    t.pc = 0;
    t.edgeNet = tp.clockNet;
    t.waitCond = 0;
    t.wakeTime = tp.period;
    switch (tp.kind) {
    case Process::Kind::Clocked:
      t.state = TbThread::State::AtEdge;
      break;
    case Process::Kind::DelayLoop:
      t.state = TbThread::State::AtTime;
      break;
    case Process::Kind::Initial:
      t.state = TbThread::State::Ready;
      break;
    }
  }
  if (!cm_->initError.empty()) {
    error_ = cm_->initError;
    verdict_ = cm_->initVerdict;
  }
}

void CompiledSimulation::recordFailure(const guard::Verdict &v) {
  if (error_.empty()) {
    verdict_ = v;
    error_ = v.str();
  }
}

void CompiledSimulation::recordPosedge(int netId) {
  posedges_.push_back(netId);
}

void CompiledSimulation::markNetFanout(int netId) {
  for (std::uint32_t r : cm_->netFanout[static_cast<std::size_t>(netId)]) {
    dirty_[r] = 1;
    if (r < minDirty_)
      minDirty_ = r;
  }
}

void CompiledSimulation::markMemFanout(int memId) {
  for (std::uint32_t r : cm_->memFanout[static_cast<std::size_t>(memId)]) {
    dirty_[r] = 1;
    if (r < minDirty_)
      minDirty_ = r;
  }
}

void CompiledSimulation::flushComb() {
  const auto &wires = cm_->wires;
  const std::uint32_t n = static_cast<std::uint32_t>(wires.size());
  // Forward sweep in levelized order: by the time rank r runs, every
  // lower-ranked support is clean, so one pass suffices.  A wire that
  // changes marks only higher ranks dirty.
  while (minDirty_ < n) {
    std::uint32_t r = minDirty_++;
    if (dirty_[r]) {
      dirty_[r] = 0;
      execProgram(wires[r].prog);
    }
  }
}

void CompiledSimulation::commitNba() {
  for (const NbWrite &w : nba_) {
    if (w.isMem) {
      auto &cells = mems_[static_cast<std::size_t>(w.id)];
      if (w.addr < cells.size() && !cells[w.addr].eq(w.value)) {
        cells[w.addr] = w.value;
        markMemFanout(w.id);
      }
    } else {
      BitVector &slot = nets_[static_cast<std::size_t>(w.id)];
      if (!slot.eq(w.value)) {
        if (cm_->watchNet[static_cast<std::size_t>(w.id)] &&
            !slot.bit(0) && w.value.bit(0))
          recordPosedge(w.id);
        slot = w.value;
        markNetFanout(w.id);
      }
    }
  }
  nba_.clear();
}

void CompiledSimulation::runDomain(int domain) {
  const ClockDomain &dom = cm_->domains[static_cast<std::size_t>(domain)];
  for (const Program &p : dom.bodies)
    execProgram(p);
  commitNba();
  flushComb();
}

void CompiledSimulation::chargeBudget(std::uint64_t insns) {
  // Cold path, entered only with a budget attached.  Steps accumulate
  // locally and hit the shared atomic in 64k batches; a trip records the
  // verdict instead of throwing out of the VM (the harness polls ok()
  // every tick, so at most one tick of slack).
  pendingSteps_ += insns;
  if (pendingSteps_ < 65536)
    return;
  try {
    budget_->chargeSteps(pendingSteps_, "vsim.compiled");
    budget_->checkDeadline("vsim.compiled");
  } catch (const guard::BudgetExceeded &e) {
    if (error_.empty()) {
      verdict_ = e.verdict;
      error_ = e.verdict.str();
    }
    stop_ = true; // the behavioral scheduler must not keep running
  }
  pendingSteps_ = 0;
}

void CompiledSimulation::execProgram(const Program &p, TbThread *t) {
  if (budget_ != nullptr)
    chargeBudget(p.insns.size());
  const Insn *ins = p.insns.data();
  const std::size_t n = p.insns.size();
  BitVector *regs = regs_.data();
  std::size_t pc = t != nullptr ? t->pc : 0;
  while (pc < n) {
    const Insn &I = ins[pc];
    if (opProfile_ != nullptr) [[unlikely]]
      ++opProfile_[static_cast<unsigned>(I.op)];
    switch (I.op) {
    case Op::ConstW:
      regs[I.dst].setWord(I.imm);
      break;
    case Op::ConstV:
      regs[I.dst] = cm_->constPool[I.aux];
      break;
    case Op::LoadWire:
      flushComb(); // O(1) when clean
      [[fallthrough]];
    case Op::LoadNet: {
      const BitVector &s = nets_[I.aux];
      if (!I.wide)
        regs[I.dst].setWord(extWord(s.word(), I.b, I.width, I.sign));
      else
        regs[I.dst] = s.resize(I.width, I.sign);
      break;
    }
    case Op::LoadMem: {
      const auto &cells = mems_[I.aux];
      std::uint64_t addr = regs[I.a].word(); // low 64 bits, like toUint64
      if (!I.wide) {
        std::uint64_t v = addr < cells.size() ? cells[addr].word() : 0;
        regs[I.dst].setWord(extWord(v, I.b, I.width, false));
      } else {
        regs[I.dst] = (addr < cells.size() ? cells[addr] : BitVector(I.b))
                          .resize(I.width, false);
      }
      break;
    }
    case Op::BitSel: {
      const BitVector &base = regs[I.a];
      std::uint64_t idx = regs[I.b].word();
      bool bit;
      if (!I.wide) {
        bit = idx < base.width() && ((base.word() >> idx) & 1);
        regs[I.dst].setWord(bit ? 1 : 0);
      } else {
        bit = idx < base.width() && base.bit(static_cast<unsigned>(idx));
        regs[I.dst] = BitVector(I.width, bit ? 1 : 0);
      }
      break;
    }
    case Op::Ext:
      if (!I.wide)
        regs[I.dst].setWord(extWord(regs[I.a].word(), I.b, I.width, I.sign));
      else
        regs[I.dst] = regs[I.a].resize(I.width, I.sign);
      break;
    case Op::Neg:
      if (!I.wide)
        regs[I.dst].setWord(0 - regs[I.a].word());
      else
        regs[I.dst] = regs[I.a].neg();
      break;
    case Op::BitNot:
      if (!I.wide)
        regs[I.dst].setWord(~regs[I.a].word());
      else
        regs[I.dst] = regs[I.a].bitNot();
      break;
    case Op::LogNot: {
      bool z = !truthy(regs[I.a]);
      if (!I.wide)
        regs[I.dst].setWord(z ? 1 : 0);
      else
        regs[I.dst] = BitVector(I.width, z ? 1 : 0);
      break;
    }
    case Op::Add:
      if (!I.wide)
        regs[I.dst].setWord(regs[I.a].word() + regs[I.b].word());
      else
        regs[I.dst] = regs[I.a].add(regs[I.b]);
      break;
    case Op::Sub:
      if (!I.wide)
        regs[I.dst].setWord(regs[I.a].word() - regs[I.b].word());
      else
        regs[I.dst] = regs[I.a].sub(regs[I.b]);
      break;
    case Op::Mul:
      if (!I.wide)
        regs[I.dst].setWord(regs[I.a].word() * regs[I.b].word());
      else
        regs[I.dst] = regs[I.a].mul(regs[I.b]);
      break;
    case Op::Div:
      if (!I.wide)
        regs[I.dst].setWord(divWord(regs[I.a].word(), regs[I.b].word(),
                                    I.width, I.sign));
      else
        regs[I.dst] = I.sign ? regs[I.a].sdiv(regs[I.b])
                             : regs[I.a].udiv(regs[I.b]);
      break;
    case Op::Mod:
      if (!I.wide)
        regs[I.dst].setWord(modWord(regs[I.a].word(), regs[I.b].word(),
                                    I.width, I.sign));
      else
        regs[I.dst] = I.sign ? regs[I.a].srem(regs[I.b])
                             : regs[I.a].urem(regs[I.b]);
      break;
    case Op::And:
      if (!I.wide)
        regs[I.dst].setWord(regs[I.a].word() & regs[I.b].word());
      else
        regs[I.dst] = regs[I.a].bitAnd(regs[I.b]);
      break;
    case Op::Or:
      if (!I.wide)
        regs[I.dst].setWord(regs[I.a].word() | regs[I.b].word());
      else
        regs[I.dst] = regs[I.a].bitOr(regs[I.b]);
      break;
    case Op::Xor:
      if (!I.wide)
        regs[I.dst].setWord(regs[I.a].word() ^ regs[I.b].word());
      else
        regs[I.dst] = regs[I.a].bitXor(regs[I.b]);
      break;
    case Op::Shl: {
      unsigned amt = shiftAmount(regs[I.b], I.width);
      if (!I.wide)
        regs[I.dst].setWord(amt >= I.width ? 0 : regs[I.a].word() << amt);
      else
        regs[I.dst] = regs[I.a].shl(amt);
      break;
    }
    case Op::Shr:
    case Op::AShr: {
      unsigned amt = shiftAmount(regs[I.b], I.width);
      bool arith = I.op == Op::AShr && I.sign; // unsigned >>> is logical
      if (!I.wide)
        regs[I.dst].setWord(arith ? ashrWord(regs[I.a].word(), amt, I.width)
                            : amt >= I.width ? 0
                                             : regs[I.a].word() >> amt);
      else
        regs[I.dst] = arith ? regs[I.a].ashr(amt) : regs[I.a].lshr(amt);
      break;
    }
    case Op::CmpLt:
    case Op::CmpLe:
    case Op::CmpEq:
    case Op::CmpNe: {
      bool res;
      if (!I.wide) {
        res = cmpWord(I.op, regs[I.a].word(), regs[I.b].word(),
                      regs[I.a].width(), I.sign);
        regs[I.dst].setWord(res ? 1 : 0);
      } else {
        const BitVector &a = regs[I.a], &b = regs[I.b];
        switch (I.op) {
        case Op::CmpLt: res = I.sign ? a.slt(b) : a.ult(b); break;
        case Op::CmpLe: res = I.sign ? a.sle(b) : a.ule(b); break;
        case Op::CmpEq: res = a.eq(b); break;
        default:        res = !a.eq(b); break;
        }
        regs[I.dst] = BitVector(I.width, res ? 1 : 0);
      }
      break;
    }
    case Op::LAnd:
    case Op::LOr: {
      bool res = I.op == Op::LAnd
                     ? (truthy(regs[I.a]) && truthy(regs[I.b]))
                     : (truthy(regs[I.a]) || truthy(regs[I.b]));
      if (!I.wide)
        regs[I.dst].setWord(res ? 1 : 0);
      else
        regs[I.dst] = BitVector(I.width, res ? 1 : 0);
      break;
    }
    case Op::Select: {
      const BitVector &v = truthy(regs[I.a]) ? regs[I.b] : regs[I.aux];
      if (!I.wide)
        regs[I.dst].setWord(v.word());
      else
        regs[I.dst] = v;
      break;
    }
    case Op::Concat2:
      if (!I.wide)
        regs[I.dst].setWord((regs[I.a].word() << I.aux) |
                            regs[I.b].word());
      else
        regs[I.dst] = regs[I.a].concat(regs[I.b]);
      break;
    case Op::Extract:
      if (!I.wide)
        regs[I.dst].setWord((regs[I.a].word() >> I.aux) &
                            BitVector::wordMask(I.b));
      else
        regs[I.dst] =
            regs[I.a].extract(I.aux, I.b).resize(I.width, false);
      break;
    case Op::Jump:
      pc = I.aux;
      continue;
    case Op::JumpIfZero:
      if (!truthy(regs[I.a])) {
        pc = I.aux;
        continue;
      }
      break;
    case Op::JumpIfTrue:
      if (truthy(regs[I.a])) {
        pc = I.aux;
        continue;
      }
      break;
    case Op::CaseJump: {
      // Selector width <= 64 guaranteed by the compiler; values outside
      // [imm, imm + table size) fall through to the default target in b.
      std::uint64_t idx = regs[I.a].word() - I.imm;
      const auto &table = cm_->jumpTables[I.aux];
      pc = idx < table.size() ? table[idx] : I.b;
      continue;
    }
    case Op::StoreNet: {
      BitVector &slot = nets_[I.aux];
      const BitVector &v = regs[I.a];
      if (!I.wide) {
        if (slot.word() != v.word()) {
          if (cm_->watchNet[I.aux] && !(slot.word() & 1) && (v.word() & 1))
            recordPosedge(static_cast<int>(I.aux));
          slot.setWord(v.word());
          markNetFanout(static_cast<int>(I.aux));
        }
      } else if (!slot.eq(v)) {
        if (cm_->watchNet[I.aux] && !slot.bit(0) && v.bit(0))
          recordPosedge(static_cast<int>(I.aux));
        slot = v;
        markNetFanout(static_cast<int>(I.aux));
      }
      break;
    }
    case Op::StoreMem: {
      auto &cells = mems_[I.aux];
      std::uint64_t addr = regs[I.a].word();
      if (addr < cells.size()) { // out-of-range stores address no cell
        BitVector &cell = cells[addr];
        const BitVector &v = regs[I.b];
        if (!I.wide) {
          if (cell.word() != v.word()) {
            cell.setWord(v.word());
            markMemFanout(static_cast<int>(I.aux));
          }
        } else if (!cell.eq(v)) {
          cell = v;
          markMemFanout(static_cast<int>(I.aux));
        }
      }
      break;
    }
    case Op::NbNet:
      nba_.push_back(
          NbWrite{false, static_cast<int>(I.aux), 0, regs[I.a]});
      break;
    case Op::NbMem:
      nba_.push_back(NbWrite{true, static_cast<int>(I.aux),
                             regs[I.a].word(), regs[I.b]});
      break;
    // ---- thread ops: only reachable from thread programs (t != null) ----
    case Op::TWait:
      t->state = TbThread::State::AtEdge;
      t->edgeNet = static_cast<int>(I.aux);
      t->pc = pc + 1;
      return;
    case Op::TDelay:
      t->state = TbThread::State::AtTime;
      t->wakeTime = time_ + I.imm;
      t->pc = pc + 1;
      return;
    case Op::TWaitCond:
      if (truthy(regs[I.a]))
        break; // already true: fall through, like the event engine
      t->state = TbThread::State::AtWait;
      t->waitCond = I.b;
      t->pc = I.aux; // resume re-evaluates the condition
      return;
    case Op::TDisplay: {
      const DisplayDesc &d = cm_->displays[I.aux];
      std::string out;
      for (const DisplaySeg &seg : d.segs) {
        out += seg.lit;
        if (seg.conv == 0)
          continue;
        const BitVector &v = regs_[seg.arg];
        switch (seg.conv) {
        case 'd':
          out += seg.sign ? v.toStringSigned() : v.toStringUnsigned();
          break;
        case 'h':
          out += v.toStringHex().substr(2);
          break;
        default: // 'b'
          for (unsigned b = v.width(); b-- > 0;)
            out.push_back(v.bit(b) ? '1' : '0');
          break;
        }
      }
      output_.push_back(std::move(out));
      break;
    }
    case Op::TFinish:
      finished_ = true;
      t->state = TbThread::State::Done;
      return;
    case Op::TReadMem: {
      const ReadMemDesc &d = cm_->readmems[I.aux];
      auto &cells = mems_[static_cast<std::size_t>(d.memId)];
      unsigned width =
          cm_->model->mems[static_cast<std::size_t>(d.memId)].width;
      guard::Verdict v;
      bool loaded = loadMemFile(d.path, d.readHex, width, cells, v);
      markMemFanout(d.memId); // the parsed prefix is stored either way
      if (!loaded) {
        // Same contract as the event engine: record the failure, retire
        // only this thread, and let the rest of the run continue.
        recordFailure(v);
        t->state = TbThread::State::Done;
        return;
      }
      break;
    }
    case Op::TError:
      if (error_.empty())
        error_ = cm_->messages[I.aux];
      stop_ = true;
      t->state = TbThread::State::Done;
      return;
    }
    ++pc;
  }
}

void CompiledSimulation::execThread(TbThread &t) {
  execProgram(cm_->threads[t.index].prog, &t);
  if (t.state != TbThread::State::Ready)
    return; // parked, finished, or retired by an op
  // The body ran off the end: loop or retire, like the event engine.
  const ThreadProgram &tp = cm_->threads[t.index];
  t.pc = 0;
  switch (tp.kind) {
  case Process::Kind::Clocked:
    t.state = TbThread::State::AtEdge;
    t.edgeNet = tp.clockNet;
    break;
  case Process::Kind::DelayLoop:
    t.state = TbThread::State::AtTime;
    t.wakeTime = time_ + tp.period;
    break;
  case Process::Kind::Initial:
    t.state = TbThread::State::Done;
    break;
  }
}

bool CompiledSimulation::wakeOnEventsTb() {
  bool any = false;
  if (!posedges_.empty()) {
    for (TbThread &t : threads_)
      if (t.state == TbThread::State::AtEdge &&
          std::find(posedges_.begin(), posedges_.end(), t.edgeNet) !=
              posedges_.end()) {
        t.state = TbThread::State::Ready;
        any = true;
      }
    posedges_.clear();
  }
  for (TbThread &t : threads_)
    if (t.state == TbThread::State::AtWait) {
      const WaitCond &w = cm_->waitConds[t.waitCond];
      execProgram(w.prog);
      if (truthy(regs_[w.result])) {
        t.state = TbThread::State::Ready;
        any = true;
      }
    }
  return any;
}

void CompiledSimulation::runDeltaTb() {
  for (std::uint64_t guard = 0;; ++guard) {
    if (guard > 1'000'000) {
      if (error_.empty())
        error_ = "delta-cycle limit exceeded (oscillating design?)";
      stop_ = true;
      return;
    }
    if (budget_ && guard != 0 && (guard & 4095) == 0)
      budget_->checkDeadline("vsim.compiled");
    if (finished_ || stop_)
      return;
    bool any = false;
    for (TbThread &t : threads_) {
      if (finished_ || stop_)
        return;
      if (t.state == TbThread::State::Ready) {
        execThread(t);
        any = true;
      }
    }
    if (wakeOnEventsTb())
      any = true;
    if (any)
      continue;
    if (!nba_.empty()) {
      commitNba();
      flushComb();
      wakeOnEventsTb();
      continue;
    }
    return;
  }
}

bool CompiledSimulation::advanceTimeTb() {
  std::uint64_t next = 0;
  bool found = false;
  for (const TbThread &t : threads_)
    if (t.state == TbThread::State::AtTime &&
        (!found || t.wakeTime < next)) {
      next = t.wakeTime;
      found = true;
    }
  if (!found)
    return false;
  time_ = std::max(time_, next);
  for (TbThread &t : threads_)
    if (t.state == TbThread::State::AtTime && t.wakeTime <= time_)
      t.state = TbThread::State::Ready;
  return true;
}

void CompiledSimulation::settleTb() {
  if (stop_)
    return;
  try {
    runDeltaTb();
  } catch (const guard::GuardEvent &e) {
    recordFailure(e.verdict);
    stop_ = true;
  } catch (const std::exception &e) {
    if (error_.empty())
      error_ = e.what();
    stop_ = true;
  }
}

void CompiledSimulation::runToFinish(std::uint64_t maxTime) {
  if (!error_.empty())
    return;
  try {
    runDeltaTb();
    while (!finished_ && !stop_) {
      if (!advanceTimeTb())
        break; // no pending events: quiescent forever
      if (time_ > maxTime) {
        if (error_.empty())
          error_ = "simulation exceeded " + std::to_string(maxTime) +
                   " time units";
        break;
      }
      runDeltaTb();
    }
  } catch (const guard::GuardEvent &e) {
    recordFailure(e.verdict);
  } catch (const std::exception &e) {
    if (error_.empty())
      error_ = e.what();
  }
}

// ------------------------------------------------------------- driver --

void CompiledSimulation::poke(const std::string &name,
                              const BitVector &value) {
  if (!error_.empty())
    return;
  int id = cm_->model->findNet(name);
  if (id < 0) {
    error_ = "poke: unknown net '" + name + "'";
    return;
  }
  const Net &net = cm_->model->nets[static_cast<std::size_t>(id)];
  if (net.driver) {
    error_ = "poke: net '" + name + "' has a continuous driver";
    return;
  }
  BitVector v = value.resize(net.width, false);
  BitVector &slot = nets_[static_cast<std::size_t>(id)];
  bool rose = !slot.bit(0) && v.bit(0);
  if (!slot.eq(v)) {
    slot = std::move(v);
    markNetFanout(id);
  }
  if (cm_->behavioral) {
    if (rose && cm_->watchNet[static_cast<std::size_t>(id)])
      recordPosedge(id);
    settleTb(); // wakes edge sleepers, like the event engine's settle
    return;
  }
  int d = cm_->domainOfClock[static_cast<std::size_t>(id)];
  if (rose && d >= 0)
    runDomain(d); // the compiled analogue of the clock-edge delta
  else
    flushComb();
}

int CompiledSimulation::findNetId(const std::string &name) const {
  return cm_->model->findNet(name);
}

void CompiledSimulation::pokeId(int id, const BitVector &value) {
  if (!error_.empty() || id < 0)
    return;
  const Net &net = cm_->model->nets[static_cast<std::size_t>(id)];
  BitVector &slot = nets_[static_cast<std::size_t>(id)];
  bool rose, changed;
  if (net.width <= 64) {
    // Word path: no BitVector temporary on the per-cycle clock toggles.
    std::uint64_t v = value.word() & BitVector::wordMask(net.width);
    rose = !(slot.word() & 1) && (v & 1);
    changed = slot.word() != v;
    if (changed)
      slot.setWord(v);
  } else {
    BitVector v = value.resize(net.width, false);
    rose = !slot.bit(0) && v.bit(0);
    changed = !slot.eq(v);
    if (changed)
      slot = std::move(v);
  }
  if (changed)
    markNetFanout(id);
  if (cm_->behavioral) {
    if (rose && cm_->watchNet[static_cast<std::size_t>(id)])
      recordPosedge(id);
    settleTb();
    return;
  }
  int d = cm_->domainOfClock[static_cast<std::size_t>(id)];
  if (rose && d >= 0)
    runDomain(d);
  else
    flushComb();
}

std::uint64_t CompiledSimulation::peekWord(int id) {
  if (id < 0)
    return 0;
  flushComb();
  return nets_[static_cast<std::size_t>(id)].word();
}

void CompiledSimulation::tickId(int clkId) {
  pokeId(clkId, BitVector(1, 1));
  pokeId(clkId, BitVector(1, 0));
}

BitVector CompiledSimulation::peek(const std::string &name) {
  int id = cm_->model->findNet(name);
  if (id < 0)
    return BitVector(1);
  flushComb();
  return nets_[static_cast<std::size_t>(id)];
}

std::vector<BitVector>
CompiledSimulation::memoryContents(const std::string &name) const {
  int id = cm_->model->findMem(name);
  if (id < 0)
    return {};
  return mems_[static_cast<std::size_t>(id)];
}

void CompiledSimulation::pokeMemory(const std::string &name,
                                    std::size_t index,
                                    const BitVector &value) {
  if (!error_.empty())
    return;
  int id = cm_->model->findMem(name);
  if (id < 0) {
    error_ = "pokeMemory: unknown memory '" + name + "'";
    return;
  }
  const Memory &mem = cm_->model->mems[static_cast<std::size_t>(id)];
  if (index >= mem.depth) {
    error_ = "pokeMemory: index out of range for '" + name + "'";
    return;
  }
  BitVector v = value.resize(mem.width, false);
  auto &cells = mems_[static_cast<std::size_t>(id)];
  if (!cells[index].eq(v)) {
    cells[index] = std::move(v);
    markMemFanout(id);
  }
}

void CompiledSimulation::settle() {
  if (cm_->behavioral) {
    if (error_.empty())
      settleTb();
    return;
  }
  flushComb();
}

void CompiledSimulation::tick(const std::string &clk) {
  poke(clk, BitVector(1, 1));
  poke(clk, BitVector(1, 0));
}

// ------------------------------------------------------- testbench run --

namespace {

template <class Sim>
TestbenchResult finishTestbench(Sim &sim, std::uint64_t maxTime) {
  TestbenchResult result;
  sim.runToFinish(maxTime);
  result.finished = sim.finished();
  result.output = sim.displayed();
  result.timeUnits = sim.now();
  if (!sim.ok())
    result.error = sim.error();
  else if (!sim.finished())
    result.error = "simulation went quiescent without $finish";
  return result;
}

} // namespace

TestbenchResult runTestbench(const std::string &source,
                             const std::string &topModule,
                             std::uint64_t maxTime, SimEngine engine,
                             std::string *fallbackNote) {
  TestbenchResult result;
  ParseDiagnostic diag;
  std::shared_ptr<SourceUnit> unit = parseVerilog(source, diag);
  if (!unit) {
    result.error = "parse: " + diag.str();
    return result;
  }
  std::string elabError;
  std::shared_ptr<Model> model = elaborate(unit, topModule, elabError);
  if (!model) {
    result.error = "elaborate: " + elabError;
    return result;
  }
  CompileAttempt attempt;
  std::shared_ptr<const CompiledModel> cm =
      selectEngine(model, engine, attempt, result.error);
  if (fallbackNote && attempt.tried && !cm)
    *fallbackNote = attempt.note;
  if (!result.error.empty())
    return result;
  if (cm) {
    CompiledSimulation sim(std::move(cm));
    result = finishTestbench(sim, maxTime);
    result.engine = SimEngine::Compiled;
    return result;
  }
  Simulation sim(std::move(model));
  return finishTestbench(sim, maxTime);
}

} // namespace c2h::vsim
