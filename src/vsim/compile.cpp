#include "vsim/compile.h"

#include "support/guard.h"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>

namespace c2h::vsim {

namespace {

guard::FaultSite siteCompile("vsim.compile");

struct NotCompilable : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// Statements a levelized (or snapshot-able initial) body may contain:
// straight-line control flow that always runs to completion.  `allowIo`
// additionally admits $readmem loads — they run to completion too, so an
// initial block doing only assignments and loads still snapshots (the
// reference engine executes the load once at capture time).
bool plainStmt(const Stmt *s, bool allowNb, bool allowIo) {
  switch (s->kind) {
  case StmtKind::Block:
  case StmtKind::If:
    for (const auto &c : s->stmts)
      if (!plainStmt(c.get(), allowNb, allowIo))
        return false;
    return true;
  case StmtKind::Case:
    for (const auto &item : s->caseItems)
      if (item.body && !plainStmt(item.body.get(), allowNb, allowIo))
        return false;
    return true;
  case StmtKind::Assign:
  case StmtKind::Null:
    return true;
  case StmtKind::NbAssign:
    return allowNb;
  case StmtKind::ReadMem:
    return allowIo;
  default:
    return false; // repeat/waits/delays/$display/$finish
  }
}

void collectAssignedNets(const Stmt *s, std::set<int> &nets) {
  switch (s->kind) {
  case StmtKind::Block:
  case StmtKind::If:
    for (const auto &c : s->stmts)
      collectAssignedNets(c.get(), nets);
    break;
  case StmtKind::Case:
    for (const auto &item : s->caseItems)
      if (item.body)
        collectAssignedNets(item.body.get(), nets);
    break;
  case StmtKind::Assign:
  case StmtKind::NbAssign:
    if (s->lhs->memId < 0)
      nets.insert(s->lhs->netId);
    break;
  default:
    break;
  }
}

// Nets a behavioral body sleeps on with @(posedge ...): the VM must record
// posedges for these (plus clock nets) to wake parked threads.
void collectEventNets(const Stmt *s, std::set<int> &nets) {
  switch (s->kind) {
  case StmtKind::Block:
  case StmtKind::If:
    for (const auto &c : s->stmts)
      collectEventNets(c.get(), nets);
    break;
  case StmtKind::Case:
    for (const auto &item : s->caseItems)
      if (item.body)
        collectEventNets(item.body.get(), nets);
    break;
  case StmtKind::EventWait:
    nets.insert(s->eventNet);
    if (s->body)
      collectEventNets(s->body.get(), nets);
    break;
  case StmtKind::Repeat:
  case StmtKind::DelayStmt:
  case StmtKind::WaitExpr:
    if (s->body)
      collectEventNets(s->body.get(), nets);
    break;
  default:
    break;
  }
}

void collectDeps(const Expr *e, std::set<int> &nets, std::set<int> &mems) {
  if (e->kind == ExprKind::Ident)
    nets.insert(e->netId);
  else if (e->kind == ExprKind::Select) {
    if (e->memId >= 0)
      mems.insert(e->memId);
    else
      nets.insert(e->netId);
  }
  for (const auto &a : e->args)
    collectDeps(a.get(), nets, mems);
}

// ------------------------------------------------------------ compiler --

struct Compiler {
  const Model &m;
  CompiledModel &cm;
  Program *prog = nullptr;
  bool inProcess = false; // wire reads must flush dirty comb logic
  bool inThread = false;  // behavioral body: suspension ops allowed

  std::uint32_t newTemp(unsigned width) {
    cm.tempWidth.push_back(width);
    return static_cast<std::uint32_t>(cm.tempWidth.size() - 1);
  }

  std::size_t here() const { return prog->insns.size(); }

  Insn &emit(Op op) {
    prog->insns.push_back(Insn{});
    Insn &I = prog->insns.back();
    I.op = op;
    return I;
  }

  void patch(std::size_t at, std::size_t target) {
    prog->insns[at].aux = static_cast<std::uint32_t>(target);
  }

  std::uint32_t constant(const BitVector &v) {
    std::uint32_t t = newTemp(v.width());
    if (v.width() <= 64) {
      Insn &I = emit(Op::ConstW);
      I.dst = t;
      I.width = v.width();
      I.imm = v.word();
    } else {
      std::uint32_t pool = static_cast<std::uint32_t>(cm.constPool.size());
      cm.constPool.push_back(v);
      Insn &I = emit(Op::ConstV);
      I.dst = t;
      I.width = v.width();
      I.aux = pool;
      I.wide = true;
    }
    return t;
  }

  // readNet + resize folded into one load.
  std::uint32_t loadNet(int netId, unsigned width, bool sign) {
    const Net &net = m.nets[static_cast<std::size_t>(netId)];
    std::uint32_t t = newTemp(width);
    Insn &I = emit(net.driver && inProcess ? Op::LoadWire : Op::LoadNet);
    I.dst = t;
    I.aux = static_cast<std::uint32_t>(netId);
    I.b = net.width;
    I.width = width;
    I.sign = sign;
    I.wide = width > 64;
    return t;
  }

  std::uint32_t extend(std::uint32_t t, unsigned to, bool sign) {
    unsigned from = cm.tempWidth[t];
    if (from == to)
      return t;
    std::uint32_t d = newTemp(to);
    Insn &I = emit(Op::Ext);
    I.dst = d;
    I.a = t;
    I.b = from;
    I.width = to;
    I.sign = sign;
    I.wide = to > 64;
    return d;
  }

  std::uint32_t binOp(Op op, std::uint32_t a, std::uint32_t b, unsigned width,
                      bool sign, bool wide) {
    std::uint32_t t = newTemp(width);
    Insn &I = emit(op);
    I.dst = t;
    I.a = a;
    I.b = b;
    I.width = width;
    I.sign = sign;
    I.wide = wide;
    return t;
  }

  // Mirrors Simulation::evalCtx: the returned temp holds the node's value
  // at exactly `width` (the statically-known context width).
  std::uint32_t compileExpr(const Expr *e, unsigned width) {
    switch (e->kind) {
    case ExprKind::Number:
      return constant(e->number.resize(width, e->numberSigned));
    case ExprKind::Ident:
      return loadNet(e->netId, width, e->sign);
    case ExprKind::Select: {
      if (e->memId >= 0) {
        const Memory &mem = m.mems[static_cast<std::size_t>(e->memId)];
        std::uint32_t addr =
            compileExpr(e->args[0].get(), e->args[0]->width);
        std::uint32_t t = newTemp(width);
        Insn &I = emit(Op::LoadMem);
        I.dst = t;
        I.a = addr;
        I.aux = static_cast<std::uint32_t>(e->memId);
        I.b = mem.width;
        I.width = width;
        I.wide = width > 64;
        return t;
      }
      const Net &net = m.nets[static_cast<std::size_t>(e->netId)];
      std::uint32_t base = loadNet(e->netId, net.width, false);
      if (e->isPart) {
        unsigned lsb =
            static_cast<unsigned>(e->args[1]->number.toUint64());
        std::uint32_t t = newTemp(width);
        Insn &I = emit(Op::Extract);
        I.dst = t;
        I.a = base;
        I.aux = lsb;
        I.b = e->width; // part-select length
        I.width = width;
        I.wide = width > 64 || net.width > 64;
        return t;
      }
      std::uint32_t idx = compileExpr(e->args[0].get(), e->args[0]->width);
      std::uint32_t t = newTemp(width);
      Insn &I = emit(Op::BitSel);
      I.dst = t;
      I.a = base;
      I.b = idx;
      I.width = width;
      I.wide = width > 64 || net.width > 64;
      return t;
    }
    case ExprKind::Unary: {
      switch (e->un) {
      case UnOp::Plus:
        return compileExpr(e->args[0].get(), width);
      case UnOp::Minus: {
        std::uint32_t a = compileExpr(e->args[0].get(), width);
        std::uint32_t t = newTemp(width);
        Insn &I = emit(Op::Neg);
        I.dst = t;
        I.a = a;
        I.width = width;
        I.wide = width > 64;
        return t;
      }
      case UnOp::BitNot: {
        std::uint32_t a = compileExpr(e->args[0].get(), width);
        std::uint32_t t = newTemp(width);
        Insn &I = emit(Op::BitNot);
        I.dst = t;
        I.a = a;
        I.width = width;
        I.wide = width > 64;
        return t;
      }
      case UnOp::LogNot: {
        std::uint32_t a =
            compileExpr(e->args[0].get(), e->args[0]->width);
        std::uint32_t t = newTemp(width);
        Insn &I = emit(Op::LogNot);
        I.dst = t;
        I.a = a;
        I.width = width;
        I.wide = width > 64;
        return t;
      }
      }
      throw NotCompilable("unknown unary operator");
    }
    case ExprKind::Binary: {
      const Expr *l = e->args[0].get(), *r = e->args[1].get();
      switch (e->bin) {
      case BinOp::Add:
      case BinOp::Sub:
      case BinOp::Mul:
      case BinOp::BitAnd:
      case BinOp::BitOr:
      case BinOp::BitXor: {
        std::uint32_t a = compileExpr(l, width);
        std::uint32_t b = compileExpr(r, width);
        Op op = e->bin == BinOp::Add      ? Op::Add
                : e->bin == BinOp::Sub    ? Op::Sub
                : e->bin == BinOp::Mul    ? Op::Mul
                : e->bin == BinOp::BitAnd ? Op::And
                : e->bin == BinOp::BitOr  ? Op::Or
                                          : Op::Xor;
        return binOp(op, a, b, width, false, width > 64);
      }
      case BinOp::Div:
      case BinOp::Mod: {
        std::uint32_t a = compileExpr(l, width);
        std::uint32_t b = compileExpr(r, width);
        return binOp(e->bin == BinOp::Div ? Op::Div : Op::Mod, a, b, width,
                     e->sign, width > 64);
      }
      case BinOp::Shl:
      case BinOp::Shr:
      case BinOp::AShr: {
        std::uint32_t a = compileExpr(l, width);
        std::uint32_t amt = compileExpr(r, r->width); // self-determined
        Op op = e->bin == BinOp::Shl   ? Op::Shl
                : e->bin == BinOp::Shr ? Op::Shr
                                       : Op::AShr;
        return binOp(op, a, amt, width, e->sign, width > 64);
      }
      case BinOp::Lt:
      case BinOp::Le:
      case BinOp::Gt:
      case BinOp::Ge:
      case BinOp::Eq:
      case BinOp::Ne: {
        unsigned w = std::max(l->width, r->width);
        std::uint32_t a = compileExpr(l, w);
        std::uint32_t b = compileExpr(r, w);
        bool sgn = l->sign && r->sign;
        bool swap = e->bin == BinOp::Gt || e->bin == BinOp::Ge;
        Op op = (e->bin == BinOp::Lt || e->bin == BinOp::Gt) ? Op::CmpLt
                : (e->bin == BinOp::Le || e->bin == BinOp::Ge)
                    ? Op::CmpLe
                : e->bin == BinOp::Eq ? Op::CmpEq
                                      : Op::CmpNe;
        return binOp(op, swap ? b : a, swap ? a : b, width, sgn,
                     w > 64 || width > 64);
      }
      case BinOp::LAnd:
      case BinOp::LOr: {
        std::uint32_t a = compileExpr(l, l->width);
        std::uint32_t b = compileExpr(r, r->width);
        return binOp(e->bin == BinOp::LAnd ? Op::LAnd : Op::LOr, a, b,
                     width, false, width > 64);
      }
      }
      throw NotCompilable("unknown binary operator");
    }
    case ExprKind::Ternary: {
      std::uint32_t c = compileExpr(e->args[0].get(), e->args[0]->width);
      std::uint32_t a = compileExpr(e->args[1].get(), width);
      std::uint32_t b = compileExpr(e->args[2].get(), width);
      std::uint32_t t = newTemp(width);
      Insn &I = emit(Op::Select);
      I.dst = t;
      I.a = c;
      I.b = a;
      I.aux = b;
      I.width = width;
      I.wide = width > 64;
      return t;
    }
    case ExprKind::Concat: {
      std::uint32_t acc =
          compileExpr(e->args[0].get(), e->args[0]->width);
      for (std::size_t i = 1; i < e->args.size(); ++i) {
        std::uint32_t lo =
            compileExpr(e->args[i].get(), e->args[i]->width);
        acc = concat2(acc, lo);
      }
      return extend(acc, width, false);
    }
    case ExprKind::Repl: {
      std::uint32_t unit =
          compileExpr(e->args[0].get(), e->args[0]->width);
      std::uint32_t acc = unit;
      for (std::uint64_t i = 1; i < e->replCount; ++i)
        acc = concat2(acc, unit);
      return extend(acc, width, false);
    }
    case ExprKind::Cast: {
      std::uint32_t a = compileExpr(e->args[0].get(), e->args[0]->width);
      return extend(a, width, e->sign);
    }
    }
    throw NotCompilable("unknown expression kind");
  }

  std::uint32_t concat2(std::uint32_t hi, std::uint32_t lo) {
    unsigned nw = cm.tempWidth[hi] + cm.tempWidth[lo];
    if (nw > BitVector::kMaxWidth)
      throw NotCompilable("concatenation exceeds the maximum width");
    std::uint32_t t = newTemp(nw);
    Insn &I = emit(Op::Concat2);
    I.dst = t;
    I.a = hi;
    I.b = lo;
    I.aux = cm.tempWidth[lo];
    I.width = nw;
    I.wide = nw > 64;
    return t;
  }

  // Mirrors Simulation::execAssign.
  void compileAssign(const Stmt *s, bool nonBlocking) {
    const Expr *lhs = s->lhs.get();
    if (lhs->memId >= 0) {
      const Memory &mem = m.mems[static_cast<std::size_t>(lhs->memId)];
      std::uint32_t addr =
          compileExpr(lhs->args[0].get(), lhs->args[0]->width);
      unsigned w = std::max(mem.width, s->rhs->width);
      std::uint32_t v =
          extend(compileExpr(s->rhs.get(), w), mem.width, false);
      Insn &I = emit(nonBlocking ? Op::NbMem : Op::StoreMem);
      I.a = addr;
      I.b = v;
      I.aux = static_cast<std::uint32_t>(lhs->memId);
      I.width = mem.width;
      I.wide = mem.width > 64;
      return;
    }
    const Net &net = m.nets[static_cast<std::size_t>(lhs->netId)];
    unsigned w = std::max(net.width, s->rhs->width);
    std::uint32_t v =
        extend(compileExpr(s->rhs.get(), w), net.width, false);
    Insn &I = emit(nonBlocking ? Op::NbNet : Op::StoreNet);
    I.a = v;
    I.aux = static_cast<std::uint32_t>(lhs->netId);
    I.width = net.width;
    I.wide = net.width > 64;
  }

  // Case as one CaseJump through a value-indexed table.  Applicable when
  // the compare width fits a word and every label is a numeric constant
  // whose values are dense enough; duplicate labels keep first-match-wins
  // and the (last) default arm catches everything outside the table, so
  // the observable semantics equal the compare chain's.
  bool tryCompileCaseTable(const Stmt *s, unsigned w, std::uint32_t cv) {
    if (w > 64)
      return false;
    const Stmt *defaultBody = nullptr;
    std::vector<const Stmt *> armBodies;
    std::vector<std::pair<std::size_t, std::uint64_t>> labels; // arm, value
    std::uint64_t lo = ~0ull, hi = 0;
    for (const CaseItem &item : s->caseItems) {
      if (item.labels.empty()) {
        defaultBody = item.body.get();
        continue;
      }
      for (const auto &label : item.labels) {
        if (label->kind != ExprKind::Number)
          return false;
        std::uint64_t v = label->number.resize(w, label->numberSigned).word();
        labels.emplace_back(armBodies.size(), v);
        lo = std::min(lo, v);
        hi = std::max(hi, v);
      }
      armBodies.push_back(item.body.get());
    }
    if (labels.size() < 4)
      return false; // a short chain beats the table indirection
    std::uint64_t span = hi - lo + 1;
    if (span > 4 * labels.size() + 64 || span > 65536)
      return false; // too sparse / too large to tabulate
    std::uint32_t tableIdx = static_cast<std::uint32_t>(cm.jumpTables.size());
    cm.jumpTables.emplace_back();
    std::size_t cj = here();
    {
      Insn &I = emit(Op::CaseJump);
      I.a = cv;
      I.aux = tableIdx;
      I.imm = lo;
      I.width = w;
    }
    std::vector<std::size_t> armStart(armBodies.size());
    std::vector<std::size_t> ends;
    for (std::size_t i = 0; i < armBodies.size(); ++i) {
      armStart[i] = here();
      if (armBodies[i])
        compileStmt(armBodies[i]);
      ends.push_back(here());
      emit(Op::Jump);
    }
    std::size_t defStart = here();
    if (defaultBody)
      compileStmt(defaultBody);
    for (std::size_t j : ends)
      patch(j, here());
    prog->insns[cj].b = static_cast<std::uint32_t>(defStart);
    auto &table = cm.jumpTables[tableIdx]; // re-index: arms may have nested
    table.assign(span, static_cast<std::uint32_t>(defStart)); // case tables
    std::vector<bool> taken(span, false);
    for (const auto &[arm, v] : labels) {
      std::size_t slot = static_cast<std::size_t>(v - lo);
      if (!taken[slot]) {
        taken[slot] = true;
        table[slot] = static_cast<std::uint32_t>(armStart[arm]);
      }
    }
    return true;
  }

  void compileStmt(const Stmt *s) {
    switch (s->kind) {
    case StmtKind::Block:
      for (const auto &c : s->stmts)
        compileStmt(c.get());
      return;
    case StmtKind::Null:
      return;
    case StmtKind::Assign:
      compileAssign(s, false);
      return;
    case StmtKind::NbAssign:
      compileAssign(s, true);
      return;
    case StmtKind::If: {
      std::uint32_t c = compileExpr(s->cond.get(), s->cond->width);
      std::size_t jz = here();
      Insn &I = emit(Op::JumpIfZero);
      I.a = c;
      compileStmt(s->stmts[0].get());
      if (s->stmts.size() > 1) {
        std::size_t jend = here();
        emit(Op::Jump);
        patch(jz, here());
        compileStmt(s->stmts[1].get());
        patch(jend, here());
      } else {
        patch(jz, here());
      }
      return;
    }
    case StmtKind::Case: {
      // Same label-width and item-order rules as the event engine.
      unsigned w = s->cond->width;
      for (const CaseItem &item : s->caseItems)
        for (const auto &label : item.labels)
          w = std::max(w, label->width);
      std::uint32_t cv = compileExpr(s->cond.get(), w);
      // Dense constant labels (the FSM state case is the per-cycle hot
      // path) dispatch through one table jump instead of a linear
      // compare chain.
      if (tryCompileCaseTable(s, w, cv))
        return;
      const Stmt *defaultBody = nullptr;
      std::vector<std::pair<const Stmt *, std::vector<std::size_t>>> arms;
      for (const CaseItem &item : s->caseItems) {
        if (item.labels.empty()) {
          defaultBody = item.body.get();
          continue;
        }
        std::vector<std::size_t> jumps;
        for (const auto &label : item.labels) {
          std::uint32_t lv = compileExpr(label.get(), w);
          std::uint32_t eq = binOp(Op::CmpEq, cv, lv, 1, false, w > 64);
          jumps.push_back(here());
          Insn &I = emit(Op::JumpIfTrue);
          I.a = eq;
        }
        arms.emplace_back(item.body.get(), std::move(jumps));
      }
      std::size_t toDefault = here();
      emit(Op::Jump);
      std::vector<std::size_t> ends;
      for (const auto &[body, jumps] : arms) {
        for (std::size_t j : jumps)
          patch(j, here());
        if (body)
          compileStmt(body);
        ends.push_back(here());
        emit(Op::Jump);
      }
      patch(toDefault, here());
      if (defaultBody)
        compileStmt(defaultBody);
      for (std::size_t j : ends)
        patch(j, here());
      return;
    }
    case StmtKind::Repeat: {
      if (!inThread)
        throw NotCompilable("unsupported statement in compiled process");
      // The count is evaluated once, truncated to 64 bits (toUint64), and
      // the temp persists across any suspensions inside the body.
      std::uint32_t cnt =
          extend(compileExpr(s->cond.get(), s->cond->width), 64, false);
      std::uint32_t one = constant(BitVector(64, 1));
      std::size_t head = here();
      {
        Insn &I = emit(Op::JumpIfZero);
        I.a = cnt;
      }
      {
        Insn &I = emit(Op::Sub);
        I.dst = cnt;
        I.a = cnt;
        I.b = one;
        I.width = 64;
      }
      if (s->body)
        compileStmt(s->body.get());
      {
        Insn &I = emit(Op::Jump);
        I.aux = static_cast<std::uint32_t>(head);
      }
      patch(head, here());
      return;
    }
    case StmtKind::EventWait: {
      if (!inThread)
        throw NotCompilable("unsupported statement in compiled process");
      {
        Insn &I = emit(Op::TWait);
        I.aux = static_cast<std::uint32_t>(s->eventNet);
      }
      if (s->body)
        compileStmt(s->body.get());
      return;
    }
    case StmtKind::DelayStmt: {
      if (!inThread)
        throw NotCompilable("unsupported statement in compiled process");
      {
        Insn &I = emit(Op::TDelay);
        I.imm = s->delay;
      }
      if (s->body)
        compileStmt(s->body.get());
      return;
    }
    case StmtKind::WaitExpr: {
      if (!inThread)
        throw NotCompilable("unsupported statement in compiled process");
      // Inline check falls through when already true; otherwise the thread
      // parks AtWait and the scheduler polls the side program.  Resume
      // jumps back to the re-evaluation head, like the event engine's
      // re-check of the condition on wake.
      std::size_t head = here();
      std::uint32_t cv = compileExpr(s->cond.get(), s->cond->width);
      std::uint32_t wc = static_cast<std::uint32_t>(cm.waitConds.size());
      {
        WaitCond w;
        Program *saved = prog;
        prog = &w.prog;
        w.result = compileExpr(s->cond.get(), s->cond->width);
        prog = saved;
        cm.waitConds.push_back(std::move(w));
      }
      Insn &I = emit(Op::TWaitCond);
      I.a = cv;
      I.b = wc;
      I.aux = static_cast<std::uint32_t>(head);
      return;
    }
    case StmtKind::Display:
      if (!inThread)
        throw NotCompilable("unsupported statement in compiled process");
      compileDisplay(s);
      return;
    case StmtKind::Finish:
      if (!inThread)
        throw NotCompilable("unsupported statement in compiled process");
      emit(Op::TFinish);
      return;
    case StmtKind::ReadMem: {
      if (!inThread)
        throw NotCompilable("unsupported statement in compiled process");
      std::uint32_t idx = static_cast<std::uint32_t>(cm.readmems.size());
      ReadMemDesc d;
      d.path = s->text;
      d.memId = s->memIdx;
      d.readHex = s->readHex;
      cm.readmems.push_back(std::move(d));
      Insn &I = emit(Op::TReadMem);
      I.aux = idx;
      return;
    }
    default:
      throw NotCompilable("unsupported statement in compiled process");
    }
  }

  // $display lowered at compile time, mirroring Simulation::formatDisplay:
  // the format string splits into literal/conversion segments and each
  // consumed argument compiles to a self-determined-width temp.  Format
  // errors the event engine raises at run time (dangling '%', unknown
  // conversion, missing argument) become a TError carrying the identical
  // message, emitted after the argument evaluations so it only fires when
  // the statement is actually reached.
  void compileDisplay(const Stmt *s) {
    auto emitError = [&](const std::string &msg) {
      std::uint32_t mi = static_cast<std::uint32_t>(cm.messages.size());
      cm.messages.push_back(msg);
      Insn &I = emit(Op::TError);
      I.aux = mi;
    };
    DisplayDesc desc;
    DisplaySeg cur;
    std::size_t argIndex = 0;
    const std::string &fmt = s->text;
    for (std::size_t i = 0; i < fmt.size(); ++i) {
      char c = fmt[i];
      if (c != '%') {
        cur.lit.push_back(c);
        continue;
      }
      std::size_t j = i + 1;
      while (j < fmt.size() && fmt[j] >= '0' && fmt[j] <= '9')
        ++j; // field width / the ubiquitous %0d zero
      if (j >= fmt.size())
        return emitError("$display: dangling '%'");
      char conv = fmt[j];
      i = j;
      if (conv == '%') {
        cur.lit.push_back('%');
        continue;
      }
      if (conv != 'd' && conv != 'h' && conv != 'x' && conv != 'b')
        return emitError(std::string("$display: unsupported conversion '%") +
                         conv + "'");
      if (argIndex >= s->args.size())
        return emitError("$display: not enough arguments for format string");
      const Expr *e = s->args[argIndex++].get();
      cur.conv = conv == 'x' ? 'h' : conv;
      cur.sign = conv == 'd' && e->sign;
      cur.arg = compileExpr(e, e->width);
      desc.segs.push_back(std::move(cur));
      cur = DisplaySeg{};
    }
    if (!cur.lit.empty())
      desc.segs.push_back(std::move(cur));
    std::uint32_t di = static_cast<std::uint32_t>(cm.displays.size());
    cm.displays.push_back(std::move(desc));
    Insn &I = emit(Op::TDisplay);
    I.aux = di;
  }

  Program compileWire(int netId) {
    const Net &net = m.nets[static_cast<std::size_t>(netId)];
    Program p;
    prog = &p;
    inProcess = false;
    unsigned w = std::max(net.width, net.driver->width);
    std::uint32_t v = extend(compileExpr(net.driver, w), net.width, false);
    Insn &I = emit(Op::StoreNet);
    I.a = v;
    I.aux = static_cast<std::uint32_t>(netId);
    I.width = net.width;
    I.wide = net.width > 64;
    return p;
  }

  Program compileProcess(const Stmt *body) {
    Program p;
    prog = &p;
    inProcess = true;
    inThread = false;
    compileStmt(body);
    return p;
  }

  Program compileThread(const Stmt *body) {
    Program p;
    prog = &p;
    inProcess = true;
    inThread = true;
    if (body)
      compileStmt(body);
    inThread = false;
    return p;
  }
};

} // namespace

bool hasPlainInit(const Model &model) {
  for (const Process &p : model.procs) {
    if (p.kind == Process::Kind::DelayLoop)
      return false;
    if (p.kind == Process::Kind::Initial && p.body &&
        !plainStmt(p.body, true, true))
      return false;
  }
  return true;
}

std::shared_ptr<const CompiledModel>
compileModel(std::shared_ptr<const Model> model, std::string &whyNot) {
  siteCompile.hit();
  const Model &m = *model;

  // --- classify: levelized-domain mode vs. behavioral thread mode --------
  // Suspending control flow (testbench threads, always-#N clock
  // generators) and clocks written by processes (which wake their domain
  // mid-delta) need the thread scheduler; everything else takes the
  // per-domain levelized fast path.  Elaboration already rejects
  // procedural assignment to wires, so no check is needed here.
  bool behavioral = false;
  std::set<int> procAssigned;
  for (const Process &p : m.procs) {
    switch (p.kind) {
    case Process::Kind::DelayLoop:
      behavioral = true;
      break;
    case Process::Kind::Initial:
      if (p.body && !plainStmt(p.body, true, true))
        behavioral = true;
      break;
    case Process::Kind::Clocked:
      if (!p.body || !plainStmt(p.body, true, false)) {
        behavioral = true;
        break;
      }
      collectAssignedNets(p.body, procAssigned);
      break;
    }
  }
  if (!behavioral)
    for (const Process &p : m.procs)
      if (p.kind == Process::Kind::Clocked &&
          procAssigned.count(p.clockNet)) {
        behavioral = true;
        break;
      }

  // --- levelize the combinational nets -----------------------------------
  std::vector<int> wireIds;
  for (std::size_t i = 0; i < m.nets.size(); ++i)
    if (m.nets[i].driver)
      wireIds.push_back(static_cast<int>(i));

  std::map<int, std::set<int>> netDeps, memDeps; // wire net -> supports
  for (int w : wireIds)
    collectDeps(m.nets[static_cast<std::size_t>(w)].driver, netDeps[w],
                memDeps[w]);

  std::map<int, int> indeg; // wire -> unmet wire dependencies
  std::map<int, std::vector<int>> dependents;
  for (int w : wireIds) {
    indeg[w] = 0;
    for (int d : netDeps[w])
      if (m.nets[static_cast<std::size_t>(d)].driver) {
        ++indeg[w];
        dependents[d].push_back(w);
      }
  }
  std::vector<int> topo;
  std::set<int> ready;
  for (int w : wireIds)
    if (indeg[w] == 0)
      ready.insert(w);
  while (!ready.empty()) {
    int w = *ready.begin();
    ready.erase(ready.begin());
    topo.push_back(w);
    for (int d : dependents[w])
      if (--indeg[d] == 0)
        ready.insert(d);
  }
  if (topo.size() != wireIds.size()) {
    for (int w : wireIds)
      if (indeg[w] > 0) {
        whyNot = "combinational cycle through wire '" +
                 m.nets[static_cast<std::size_t>(w)].name + "'";
        return nullptr;
      }
    whyNot = "combinational cycle";
    return nullptr;
  }

  // --- initial image ------------------------------------------------------
  auto cm = std::make_shared<CompiledModel>();
  cm->model = model;
  cm->behavioral = behavioral;
  // Declared-initializer state first (the event engine's construction
  // state).  Behavioral models start from it and run their `initial`
  // threads live; everything else refines it to the post-`initial`
  // snapshot by running the reference engine once.  A failed capture
  // (e.g. a broken $readmem file) still compiles — the VM reports the
  // identical runtime failure instead of forcing a fallback.
  cm->init.nets.reserve(m.nets.size());
  for (const Net &net : m.nets)
    cm->init.nets.push_back(net.hasInit ? net.init : BitVector(net.width));
  cm->init.mems.reserve(m.mems.size());
  for (const Memory &mem : m.mems)
    cm->init.mems.emplace_back(mem.depth, BitVector(mem.width));
  if (!behavioral) {
    Simulation ref(model);
    ref.settle();
    if (ref.ok()) {
      cm->init = ref.snapshot();
    } else {
      // Stored verbatim so the VM's error matches the event engine's
      // byte for byte.
      cm->initError = ref.error();
      cm->initVerdict = ref.verdict();
    }
  }

  // --- compile programs ---------------------------------------------------
  Compiler c{m, *cm};
  cm->netFanout.assign(m.nets.size(), {});
  cm->memFanout.assign(m.mems.size(), {});
  cm->domainOfClock.assign(m.nets.size(), -1);
  cm->watchNet.assign(m.nets.size(), 0);
  try {
    for (std::size_t rank = 0; rank < topo.size(); ++rank) {
      int w = topo[rank];
      WireUpdate wu;
      wu.netId = w;
      wu.prog = c.compileWire(w);
      cm->wires.push_back(std::move(wu));
      for (int d : netDeps[w])
        cm->netFanout[static_cast<std::size_t>(d)].push_back(
            static_cast<std::uint32_t>(rank));
      for (int d : memDeps[w])
        cm->memFanout[static_cast<std::size_t>(d)].push_back(
            static_cast<std::uint32_t>(rank));
    }
    if (behavioral) {
      // Posedge-watched nets: clock nets and @(posedge) targets.  Wires
      // never wake edge sleepers (the event engine records posedges only
      // on procedural writes), so driven nets stay unwatched.
      std::set<int> watched;
      for (const Process &p : m.procs) {
        if (p.kind == Process::Kind::Clocked)
          watched.insert(p.clockNet);
        if (p.body)
          collectEventNets(p.body, watched);
      }
      for (int nid : watched)
        if (nid >= 0 && !m.nets[static_cast<std::size_t>(nid)].driver)
          cm->watchNet[static_cast<std::size_t>(nid)] = 1;
      for (const Process &p : m.procs) {
        ThreadProgram tp;
        tp.kind = p.kind;
        tp.clockNet = p.clockNet;
        tp.period = p.period;
        tp.prog = c.compileThread(p.body);
        cm->threads.push_back(std::move(tp));
      }
    } else {
      for (const Process &p : m.procs) {
        if (p.kind != Process::Kind::Clocked)
          continue;
        int d = cm->domainOfClock[static_cast<std::size_t>(p.clockNet)];
        if (d < 0) {
          d = static_cast<int>(cm->domains.size());
          ClockDomain dom;
          dom.clockNet = p.clockNet;
          cm->domains.push_back(std::move(dom));
          cm->domainOfClock[static_cast<std::size_t>(p.clockNet)] = d;
        }
        cm->domains[static_cast<std::size_t>(d)].bodies.push_back(
            c.compileProcess(p.body));
      }
    }
  } catch (const NotCompilable &e) {
    whyNot = e.what();
    return nullptr;
  }
  return cm;
}

std::shared_ptr<const CompiledModel>
selectEngine(const std::shared_ptr<const Model> &model, SimEngine engine,
             CompileAttempt &attempt, std::string &strictError) {
  if (engine == SimEngine::Event)
    return nullptr;
  if (!attempt.tried) {
    attempt.tried = true;
    try {
      attempt.compiled = compileModel(model, attempt.note);
    } catch (const guard::InjectedFault &e) {
      // An injected compile fault behaves like a refused compile.
      attempt.note = e.verdict.str();
      attempt.verdict = e.verdict;
    }
  }
  if (!attempt.compiled && engine == SimEngine::CompiledStrict)
    strictError = "vsim: compiled-strict: " + attempt.note;
  return attempt.compiled;
}

const char *opName(Op op) {
  static const char *const names[] = {
      "ConstW",     "ConstV",     "LoadNet",    "LoadWire",   "LoadMem",
      "BitSel",     "Ext",        "Neg",        "BitNot",     "LogNot",
      "Add",        "Sub",        "Mul",        "Div",        "Mod",
      "And",        "Or",         "Xor",        "Shl",        "Shr",
      "AShr",       "CmpLt",      "CmpLe",      "CmpEq",      "CmpNe",
      "LAnd",       "LOr",        "Select",     "Concat2",    "Extract",
      "Jump",       "JumpIfZero", "JumpIfTrue", "CaseJump",   "StoreNet",
      "StoreMem",   "NbNet",      "NbMem",      "TWait",      "TDelay",
      "TWaitCond",  "TDisplay",   "TFinish",    "TReadMem",   "TError"};
  static_assert(sizeof(names) / sizeof(names[0]) == kOpCount,
                "opName table out of sync with the Op enum");
  return names[static_cast<unsigned>(op)];
}

} // namespace c2h::vsim
