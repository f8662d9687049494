#include "vsim/sim.h"

#include "vsim/readmem.h"

#include <algorithm>
#include <cctype>
#include <stdexcept>

namespace c2h::vsim {

namespace {

struct VsimError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Depth/stack bookkeeping for wire evaluation; the overflow check runs in
// readNet (before the push) so the loop's nets can be named.
struct DepthGuard {
  unsigned &depth;
  std::vector<int> &stack;
  DepthGuard(unsigned &d, std::vector<int> &s) : depth(d), stack(s) {
    ++depth;
  }
  ~DepthGuard() {
    --depth;
    stack.pop_back();
  }
};

} // namespace

Simulation::Simulation(std::shared_ptr<const Model> model)
    : model_(std::move(model)) {
  values_.reserve(model_->nets.size());
  for (const Net &net : model_->nets)
    values_.push_back(net.hasInit ? net.init : BitVector(net.width));
  mems_.reserve(model_->mems.size());
  for (const Memory &mem : model_->mems)
    mems_.emplace_back(mem.depth, BitVector(mem.width));
  wireCache_.assign(model_->nets.size(), BitVector(1));
  wireCacheGen_.assign(model_->nets.size(), 0);
  for (const Process &proc : model_->procs) {
    Thread t;
    t.kind = proc.kind;
    t.clockNet = proc.clockNet;
    t.period = proc.period;
    t.body = proc.body;
    switch (proc.kind) {
    case Process::Kind::Clocked:
      t.state = ThreadState::AtEdge;
      t.edgeNet = proc.clockNet;
      break;
    case Process::Kind::DelayLoop:
      t.state = ThreadState::AtTime;
      t.wakeTime = proc.period;
      break;
    case Process::Kind::Initial:
      t.state = ThreadState::Ready;
      t.stack.push_back(Frame{proc.body});
      break;
    }
    threads_.push_back(std::move(t));
  }
}

Simulation::Simulation(std::shared_ptr<const Model> model,
                       const InitImage &image)
    : Simulation(std::move(model)) {
  values_ = image.nets;
  mems_ = image.mems;
  for (Thread &t : threads_)
    if (t.kind == Process::Kind::Initial) {
      t.stack.clear();
      t.state = ThreadState::Done;
    }
  ++generation_;
}

// ------------------------------------------------------------- values --

void Simulation::throwCombLoop(int id) const {
  // The evaluation stack holds every wire on the path here; the slice from
  // the previous occurrence of `id` (if any) is the actual cycle.
  std::size_t from = 0;
  for (std::size_t i = evalStack_.size(); i-- > 0;)
    if (evalStack_[i] == id) {
      from = i;
      break;
    }
  std::string nets;
  for (std::size_t i = from; i < evalStack_.size(); ++i)
    nets += model_->nets[static_cast<std::size_t>(evalStack_[i])].name +
            " -> ";
  nets += model_->nets[static_cast<std::size_t>(id)].name;
  guard::Verdict v;
  v.kind = guard::Kind::CombLoop;
  v.stage = "vsim.event";
  v.site = nets;
  throw guard::BudgetExceeded(std::move(v));
}

void Simulation::recordGuardFailure(const guard::Verdict &v) const {
  if (!error_.empty())
    return;
  verdict_ = v;
  error_ = v.kind == guard::Kind::CombLoop
               ? "combinational loop through nets: " + v.site
               : v.str();
}

BitVector Simulation::readNet(int id) const {
  const Net &net = model_->nets[static_cast<std::size_t>(id)];
  if (!net.driver)
    return values_[static_cast<std::size_t>(id)];
  if (wireCacheGen_[static_cast<std::size_t>(id)] == generation_)
    return wireCache_[static_cast<std::size_t>(id)];
  if (evalDepth_ >= 1000)
    throwCombLoop(id);
  evalStack_.push_back(id);
  DepthGuard guard(evalDepth_, evalStack_);
  unsigned w = std::max(net.width, net.driver->width);
  BitVector v = evalCtx(net.driver, w).resize(net.width, false);
  wireCache_[static_cast<std::size_t>(id)] = v;
  wireCacheGen_[static_cast<std::size_t>(id)] = generation_;
  return v;
}

void Simulation::writeNet(int id, const BitVector &value) {
  BitVector &slot = values_[static_cast<std::size_t>(id)];
  bool rose = !slot.bit(0) && value.bit(0);
  slot = value;
  ++generation_;
  if (rose)
    posedges_.push_back(id);
}

void Simulation::writeMem(int id, std::uint64_t addr,
                          const BitVector &value) {
  auto &cells = mems_[static_cast<std::size_t>(id)];
  if (addr < cells.size())
    cells[addr] = value; // out-of-range stores address no cell, like a RAM
  ++generation_;
}

// --------------------------------------------------------- evaluation --
// Context-determined evaluation: `width` is the final (context) width the
// node's value participates at.  The effective signedness for extensions
// and signed operators is the node's self sign — the emitter keeps every
// $signed coercion at the top of its own assignment or comparison, so the
// propagated-down sign always equals the subtree's self-determined sign.

BitVector Simulation::evalCtx(const Expr *e, unsigned width) const {
  switch (e->kind) {
  case ExprKind::Number:
    return e->number.resize(width, e->numberSigned);
  case ExprKind::Ident:
    return readNet(e->netId).resize(width, e->sign);
  case ExprKind::Select: {
    if (e->memId >= 0) {
      std::uint64_t addr = evalSelf(e->args[0].get()).toUint64();
      const auto &cells = mems_[static_cast<std::size_t>(e->memId)];
      const Memory &mem = model_->mems[static_cast<std::size_t>(e->memId)];
      BitVector v =
          addr < cells.size() ? cells[addr] : BitVector(mem.width);
      return v.resize(width, false);
    }
    BitVector base = readNet(e->netId);
    if (e->isPart) {
      unsigned lsb =
          static_cast<unsigned>(e->args[1]->number.toUint64());
      return base.extract(lsb, e->width).resize(width, false);
    }
    std::uint64_t idx = evalSelf(e->args[0].get()).toUint64();
    bool bit = idx < base.width() && base.bit(static_cast<unsigned>(idx));
    return BitVector(width, bit ? 1 : 0);
  }
  case ExprKind::Unary: {
    switch (e->un) {
    case UnOp::Plus:
      return evalCtx(e->args[0].get(), width);
    case UnOp::Minus:
      return evalCtx(e->args[0].get(), width).neg();
    case UnOp::BitNot:
      return evalCtx(e->args[0].get(), width).bitNot();
    case UnOp::LogNot:
      return BitVector(width, evalSelf(e->args[0].get()).isZero() ? 1 : 0);
    }
    return BitVector(width);
  }
  case ExprKind::Binary: {
    const Expr *l = e->args[0].get(), *r = e->args[1].get();
    switch (e->bin) {
    case BinOp::Add:
      return evalCtx(l, width).add(evalCtx(r, width));
    case BinOp::Sub:
      return evalCtx(l, width).sub(evalCtx(r, width));
    case BinOp::Mul:
      return evalCtx(l, width).mul(evalCtx(r, width));
    case BinOp::Div: {
      BitVector a = evalCtx(l, width), b = evalCtx(r, width);
      return e->sign ? a.sdiv(b) : a.udiv(b);
    }
    case BinOp::Mod: {
      BitVector a = evalCtx(l, width), b = evalCtx(r, width);
      return e->sign ? a.srem(b) : a.urem(b);
    }
    case BinOp::BitAnd:
      return evalCtx(l, width).bitAnd(evalCtx(r, width));
    case BinOp::BitOr:
      return evalCtx(l, width).bitOr(evalCtx(r, width));
    case BinOp::BitXor:
      return evalCtx(l, width).bitXor(evalCtx(r, width));
    case BinOp::Shl:
    case BinOp::Shr:
    case BinOp::AShr: {
      BitVector a = evalCtx(l, width);
      BitVector amtBits = evalSelf(r);
      // Amounts >= the operand width shift everything out; BitVector's
      // shift operators already saturate that way.
      unsigned amt = amtBits.activeBits() > 31
                         ? a.width()
                         : static_cast<unsigned>(amtBits.toUint64());
      if (e->bin == BinOp::Shl)
        return a.shl(amt);
      if (e->bin == BinOp::Shr)
        return a.lshr(amt);
      return e->sign ? a.ashr(amt) : a.lshr(amt);
    }
    case BinOp::Lt:
    case BinOp::Le:
    case BinOp::Gt:
    case BinOp::Ge:
    case BinOp::Eq:
    case BinOp::Ne: {
      unsigned w = std::max(l->width, r->width);
      BitVector a = evalCtx(l, w), b = evalCtx(r, w);
      bool sgn = l->sign && r->sign;
      bool res = false;
      switch (e->bin) {
      case BinOp::Lt: res = sgn ? a.slt(b) : a.ult(b); break;
      case BinOp::Le: res = sgn ? a.sle(b) : a.ule(b); break;
      case BinOp::Gt: res = sgn ? b.slt(a) : b.ult(a); break;
      case BinOp::Ge: res = sgn ? b.sle(a) : b.ule(a); break;
      case BinOp::Eq: res = a.eq(b); break;
      case BinOp::Ne: res = !a.eq(b); break;
      default: break;
      }
      return BitVector(width, res ? 1 : 0);
    }
    case BinOp::LAnd: {
      bool res = !evalSelf(l).isZero() && !evalSelf(r).isZero();
      return BitVector(width, res ? 1 : 0);
    }
    case BinOp::LOr: {
      bool res = !evalSelf(l).isZero() || !evalSelf(r).isZero();
      return BitVector(width, res ? 1 : 0);
    }
    }
    return BitVector(width);
  }
  case ExprKind::Ternary:
    return evalSelf(e->args[0].get()).isZero()
               ? evalCtx(e->args[2].get(), width)
               : evalCtx(e->args[1].get(), width);
  case ExprKind::Concat: {
    BitVector acc = evalSelf(e->args[0].get());
    for (std::size_t i = 1; i < e->args.size(); ++i)
      acc = acc.concat(evalSelf(e->args[i].get()));
    return acc.resize(width, false);
  }
  case ExprKind::Repl: {
    BitVector unit = evalSelf(e->args[0].get());
    BitVector acc = unit;
    for (std::uint64_t i = 1; i < e->replCount; ++i)
      acc = acc.concat(unit);
    return acc.resize(width, false);
  }
  case ExprKind::Cast:
    return evalSelf(e->args[0].get()).resize(width, e->sign);
  }
  return BitVector(width);
}

// ---------------------------------------------------------- execution --

void Simulation::execAssign(const Stmt *s, bool nonBlocking) {
  const Expr *lhs = s->lhs.get();
  if (lhs->memId >= 0) {
    const Memory &mem = model_->mems[static_cast<std::size_t>(lhs->memId)];
    std::uint64_t addr = evalSelf(lhs->args[0].get()).toUint64();
    unsigned w = std::max(mem.width, s->rhs->width);
    BitVector v = evalCtx(s->rhs.get(), w).resize(mem.width, false);
    if (nonBlocking)
      nba_.push_back(Nba{true, lhs->memId, addr, std::move(v)});
    else
      writeMem(lhs->memId, addr, v);
    return;
  }
  const Net &net = model_->nets[static_cast<std::size_t>(lhs->netId)];
  unsigned w = std::max(net.width, s->rhs->width);
  BitVector v = evalCtx(s->rhs.get(), w).resize(net.width, false);
  if (nonBlocking)
    nba_.push_back(Nba{false, lhs->netId, 0, std::move(v)});
  else
    writeNet(lhs->netId, v);
}

// $readmemh/$readmemb through the shared loader (vsim/readmem.h): file
// errors, malformed tokens, and out-of-range records surface as a
// structured IoError verdict, never as an exception.
void Simulation::execReadMem(const Stmt *s) {
  auto &cells = mems_[static_cast<std::size_t>(s->memIdx)];
  unsigned width = model_->mems[static_cast<std::size_t>(s->memIdx)].width;
  guard::Verdict v;
  if (!loadMemFile(s->text, s->readHex, width, cells, v))
    recordGuardFailure(v);
  ++generation_;
}

void Simulation::runThread(Thread &t) {
  t.state = ThreadState::Ready;
  if (t.stack.empty() && t.body)
    t.stack.push_back(Frame{t.body});
  while (!t.stack.empty()) {
    Frame &f = t.stack.back();
    const Stmt *s = f.stmt;
    switch (s->kind) {
    case StmtKind::Block: {
      if (f.idx < s->stmts.size()) {
        const Stmt *child = s->stmts[f.idx++].get();
        t.stack.push_back(Frame{child});
      } else {
        t.stack.pop_back();
      }
      break;
    }
    case StmtKind::Assign:
      execAssign(s, false);
      t.stack.pop_back();
      break;
    case StmtKind::NbAssign:
      execAssign(s, true);
      t.stack.pop_back();
      break;
    case StmtKind::If: {
      bool taken = !evalSelf(s->cond.get()).isZero();
      t.stack.pop_back();
      if (taken)
        t.stack.push_back(Frame{s->stmts[0].get()});
      else if (s->stmts.size() > 1)
        t.stack.push_back(Frame{s->stmts[1].get()});
      break;
    }
    case StmtKind::Case: {
      unsigned w = s->cond->width;
      for (const CaseItem &item : s->caseItems)
        for (const auto &label : item.labels)
          w = std::max(w, label->width);
      BitVector cv = evalCtx(s->cond.get(), w);
      const Stmt *chosen = nullptr;
      const Stmt *defaultBody = nullptr;
      for (const CaseItem &item : s->caseItems) {
        if (item.labels.empty()) {
          defaultBody = item.body.get();
          continue;
        }
        for (const auto &label : item.labels)
          if (evalCtx(label.get(), w).eq(cv)) {
            chosen = item.body.get();
            break;
          }
        if (chosen)
          break;
      }
      if (!chosen)
        chosen = defaultBody;
      t.stack.pop_back();
      if (chosen)
        t.stack.push_back(Frame{chosen});
      break;
    }
    case StmtKind::Repeat: {
      if (!f.entered) {
        f.count = evalSelf(s->cond.get()).toUint64();
        f.entered = true;
      }
      if (f.count > 0) {
        --f.count;
        t.stack.push_back(Frame{s->body.get()});
      } else {
        t.stack.pop_back();
      }
      break;
    }
    case StmtKind::EventWait: {
      if (!f.entered) {
        f.entered = true;
        t.state = ThreadState::AtEdge;
        t.edgeNet = s->eventNet;
        return;
      }
      t.stack.pop_back();
      if (s->body)
        t.stack.push_back(Frame{s->body.get()});
      break;
    }
    case StmtKind::WaitExpr: {
      if (!evalSelf(s->cond.get()).isZero()) {
        t.stack.pop_back();
      } else {
        t.state = ThreadState::AtWait;
        t.waitExpr = s->cond.get();
        return;
      }
      break;
    }
    case StmtKind::DelayStmt: {
      if (!f.entered) {
        f.entered = true;
        t.state = ThreadState::AtTime;
        t.wakeTime = time_ + s->delay;
        return;
      }
      t.stack.pop_back();
      if (s->body)
        t.stack.push_back(Frame{s->body.get()});
      break;
    }
    case StmtKind::Display:
      output_.push_back(formatDisplay(s));
      t.stack.pop_back();
      break;
    case StmtKind::ReadMem:
      execReadMem(s);
      if (!error_.empty()) {
        t.stack.clear();
        t.state = ThreadState::Done;
        return;
      }
      t.stack.pop_back();
      break;
    case StmtKind::Finish:
      finished_ = true;
      t.stack.clear();
      t.state = ThreadState::Done;
      return;
    case StmtKind::Null:
      t.stack.pop_back();
      break;
    }
  }
  // Body finished: loop or retire.
  switch (t.kind) {
  case Process::Kind::Clocked:
    t.state = ThreadState::AtEdge;
    t.edgeNet = t.clockNet;
    break;
  case Process::Kind::DelayLoop:
    t.state = ThreadState::AtTime;
    t.wakeTime = time_ + t.period;
    break;
  case Process::Kind::Initial:
    t.state = ThreadState::Done;
    break;
  }
}

bool Simulation::wakeOnEvents() {
  bool any = false;
  if (!posedges_.empty()) {
    for (Thread &t : threads_)
      if (t.state == ThreadState::AtEdge &&
          std::find(posedges_.begin(), posedges_.end(), t.edgeNet) !=
              posedges_.end()) {
        t.state = ThreadState::Ready;
        any = true;
      }
    posedges_.clear();
  }
  for (Thread &t : threads_)
    if (t.state == ThreadState::AtWait &&
        !evalSelf(t.waitExpr).isZero()) {
      t.state = ThreadState::Ready;
      any = true;
    }
  return any;
}

void Simulation::applyNba() {
  std::vector<Nba> queue;
  queue.swap(nba_);
  for (const Nba &w : queue) {
    if (w.isMem)
      writeMem(w.id, w.addr, w.value);
    else
      writeNet(w.id, w.value);
  }
}

void Simulation::runDelta() {
  for (std::uint64_t guard = 0;; ++guard) {
    if (guard > 1'000'000)
      throw VsimError("delta-cycle limit exceeded (oscillating design?)");
    if (budget_ && guard != 0 && (guard & 4095) == 0)
      budget_->checkDeadline("vsim.event");
    if (finished_)
      return;
    bool any = false;
    for (Thread &t : threads_) {
      if (finished_)
        return;
      if (t.state == ThreadState::Ready) {
        runThread(t);
        any = true;
      }
    }
    if (wakeOnEvents())
      any = true;
    if (any)
      continue;
    if (!nba_.empty()) {
      applyNba();
      wakeOnEvents();
      continue;
    }
    return;
  }
}

bool Simulation::advanceTime() {
  std::uint64_t next = 0;
  bool found = false;
  for (const Thread &t : threads_)
    if (t.state == ThreadState::AtTime &&
        (!found || t.wakeTime < next)) {
      next = t.wakeTime;
      found = true;
    }
  if (!found)
    return false;
  time_ = std::max(time_, next);
  for (Thread &t : threads_)
    if (t.state == ThreadState::AtTime && t.wakeTime <= time_)
      t.state = ThreadState::Ready;
  return true;
}

// ------------------------------------------------------------- driver --

void Simulation::settle() {
  if (!error_.empty())
    return;
  try {
    runDelta();
  } catch (const guard::GuardEvent &e) {
    recordGuardFailure(e.verdict);
  } catch (const std::exception &e) {
    error_ = e.what();
  }
}

void Simulation::poke(const std::string &name, const BitVector &value) {
  if (!error_.empty())
    return;
  int id = model_->findNet(name);
  if (id < 0) {
    error_ = "poke: unknown net '" + name + "'";
    return;
  }
  const Net &net = model_->nets[static_cast<std::size_t>(id)];
  if (net.driver) {
    error_ = "poke: net '" + name + "' has a continuous driver";
    return;
  }
  writeNet(id, value.resize(net.width, false));
  settle();
}

int Simulation::findNetId(const std::string &name) const {
  return model_->findNet(name);
}

void Simulation::pokeId(int id, const BitVector &value) {
  if (!error_.empty() || id < 0)
    return;
  const Net &net = model_->nets[static_cast<std::size_t>(id)];
  writeNet(id, value.resize(net.width, false));
  settle();
}

std::uint64_t Simulation::peekWord(int id) const {
  if (id < 0)
    return 0;
  try {
    return readNet(id).word();
  } catch (const guard::BudgetExceeded &e) {
    recordGuardFailure(e.verdict);
    return 0;
  } catch (const std::exception &e) {
    if (error_.empty())
      error_ = e.what();
    return 0;
  }
}

void Simulation::tickId(int clkId) {
  pokeId(clkId, BitVector(1, 1));
  pokeId(clkId, BitVector(1, 0));
}

BitVector Simulation::peek(const std::string &name) const {
  int id = model_->findNet(name);
  if (id < 0)
    return BitVector(1);
  try {
    return readNet(id);
  } catch (const guard::BudgetExceeded &e) {
    recordGuardFailure(e.verdict);
    return BitVector(model_->nets[static_cast<std::size_t>(id)].width);
  } catch (const std::exception &e) {
    if (error_.empty())
      error_ = e.what();
    return BitVector(model_->nets[static_cast<std::size_t>(id)].width);
  }
}

std::vector<BitVector>
Simulation::memoryContents(const std::string &name) const {
  int id = model_->findMem(name);
  if (id < 0)
    return {};
  return mems_[static_cast<std::size_t>(id)];
}

void Simulation::pokeMemory(const std::string &name, std::size_t index,
                            const BitVector &value) {
  if (!error_.empty())
    return;
  int id = model_->findMem(name);
  if (id < 0) {
    error_ = "pokeMemory: unknown memory '" + name + "'";
    return;
  }
  const Memory &mem = model_->mems[static_cast<std::size_t>(id)];
  if (index >= mem.depth) {
    error_ = "pokeMemory: index out of range for '" + name + "'";
    return;
  }
  writeMem(id, index, value.resize(mem.width, false));
}

void Simulation::tick(const std::string &clk) {
  poke(clk, BitVector(1, 1));
  poke(clk, BitVector(1, 0));
}

void Simulation::runToFinish(std::uint64_t maxTime) {
  if (!error_.empty())
    return;
  try {
    runDelta();
    while (!finished_) {
      if (!advanceTime())
        break; // no pending events: quiescent forever
      if (time_ > maxTime)
        throw VsimError("simulation exceeded " + std::to_string(maxTime) +
                        " time units");
      runDelta();
    }
  } catch (const guard::GuardEvent &e) {
    recordGuardFailure(e.verdict);
  } catch (const std::exception &e) {
    error_ = e.what();
  }
}

std::string Simulation::formatDisplay(const Stmt *s) const {
  std::string out;
  std::size_t argIndex = 0;
  auto nextArg = [&]() -> const Expr * {
    if (argIndex >= s->args.size())
      throw VsimError("$display: not enough arguments for format string");
    return s->args[argIndex++].get();
  };
  const std::string &fmt = s->text;
  for (std::size_t i = 0; i < fmt.size(); ++i) {
    char c = fmt[i];
    if (c != '%') {
      out.push_back(c);
      continue;
    }
    std::size_t j = i + 1;
    while (j < fmt.size() && fmt[j] >= '0' && fmt[j] <= '9')
      ++j; // field width / the ubiquitous %0d zero
    if (j >= fmt.size())
      throw VsimError("$display: dangling '%'");
    char conv = fmt[j];
    i = j;
    switch (conv) {
    case '%':
      out.push_back('%');
      break;
    case 'd': {
      const Expr *e = nextArg();
      BitVector v = evalSelf(e);
      out += e->sign ? v.toStringSigned() : v.toStringUnsigned();
      break;
    }
    case 'h':
    case 'x': {
      BitVector v = evalSelf(nextArg());
      out += v.toStringHex().substr(2);
      break;
    }
    case 'b': {
      BitVector v = evalSelf(nextArg());
      for (unsigned b = v.width(); b-- > 0;)
        out.push_back(v.bit(b) ? '1' : '0');
      break;
    }
    default:
      throw VsimError(std::string("$display: unsupported conversion '%") +
                      conv + "'");
    }
  }
  return out;
}

} // namespace c2h::vsim
