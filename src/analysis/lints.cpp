#include "analysis/lints.h"

#include "analysis/astwalk.h"
#include "ir/dataflow.h"
#include "ir/liveness.h"
#include "opt/astconst.h"
#include "opt/unroll.h"

#include <algorithm>
#include <iterator>
#include <set>
#include <vector>

namespace c2h::analysis {

using namespace ast;

// ---------------------------------------------------------------------------
// C2H-LOOP-001
// ---------------------------------------------------------------------------

Report lintUnboundedLoops(const Program &program, Severity severity) {
  Report report;
  auto flag = [&](SourceLoc loc, const std::string &what) {
    Diagnostic d;
    d.severity = severity;
    d.code = "C2H-LOOP-001";
    d.message = what + " has no statically determinable bound";
    d.spans.push_back({loc, "loop here"});
    d.hint = "full-unroll flows need canonical for-loops with constant "
             "bounds (for (i = C; i < C; i = i + C))";
    report.add(std::move(d));
  };
  forEachStmt(program, [&](const Stmt &s) {
    switch (s.kind) {
    case Stmt::Kind::While: {
      const auto &w = static_cast<const WhileStmt &>(s);
      // `while (0)` never runs — statically bounded.
      auto c = opt::tryEvalConst(*w.cond);
      if (!(c && c->isZero()))
        flag(s.loc, "while loop");
      break;
    }
    case Stmt::Kind::DoWhile:
      flag(s.loc, "do-while loop");
      break;
    case Stmt::Kind::For:
      if (!opt::staticTripCount(static_cast<const ForStmt &>(s)))
        flag(s.loc, "for loop");
      break;
    default:
      break;
    }
  });
  return report;
}

// ---------------------------------------------------------------------------
// C2H-WIDTH-001
// ---------------------------------------------------------------------------

namespace {

bool constantFits(const Expr &operand, unsigned dstWidth, bool dstSigned) {
  auto value = opt::tryEvalConst(operand);
  if (!value || dstWidth >= value->width())
    return false;
  BitVector narrowed = value->trunc(dstWidth);
  BitVector back = dstSigned ? narrowed.sext(value->width())
                             : narrowed.zext(value->width());
  return back == *value;
}

} // namespace

Report lintWidthTruncation(const Program &program) {
  Report report;
  forEachExpr(program, [&](const Expr &e) {
    if (e.kind != Expr::Kind::Cast)
      return;
    const auto &cast = static_cast<const CastExpr &>(e);
    if (!cast.isImplicit || !cast.type || !cast.type->isInt())
      return;
    const Type *src = cast.operand->type;
    if (!src || !src->isInt() || src->bitWidth() <= cast.type->bitWidth())
      return;
    if (constantFits(*cast.operand, cast.type->bitWidth(),
                     cast.type->isSigned()))
      return;
    Diagnostic d;
    d.severity = Severity::Warning;
    d.code = "C2H-WIDTH-001";
    d.message = "implicit truncation from " + src->str() + " to " +
                cast.type->str() + " may discard significant bits";
    d.spans.push_back({cast.loc, "narrowed here"});
    d.hint = "widen the target or make the truncation explicit with a cast";
    report.add(std::move(d));
  });
  return report;
}

// ---------------------------------------------------------------------------
// C2H-UNINIT-001
// ---------------------------------------------------------------------------

namespace {

// The vregs that may still be unwritten where a block starts, ascending.
using Unwritten = std::vector<unsigned>;

bool joinUnwritten(const ir::BasicBlock &, Unwritten &into,
                   const Unwritten &from, bool) {
  if (std::includes(into.begin(), into.end(), from.begin(), from.end()))
    return false;
  Unwritten merged;
  merged.reserve(into.size() + from.size());
  std::set_union(into.begin(), into.end(), from.begin(), from.end(),
                 std::back_inserter(merged));
  into = std::move(merged);
  return true;
}

void lintFunctionUninit(const ir::Function &fn, Report &report) {
  const unsigned regs = fn.vregCount();
  if (regs == 0 || fn.blocks().empty())
    return;

  // A read can see an unwritten vreg only if some path from the entry
  // reaches it without a write, so only the vregs live into the entry can
  // be unwritten, parameters aside.  Lowering zero-initializes locals, so
  // for almost every function there are none.
  const ir::Liveness liveness(fn);
  Unwritten seed;
  for (unsigned r : liveness.liveIn(fn.entry()))
    if (r < regs && std::none_of(fn.params().begin(), fn.params().end(),
                                 [r](ir::VReg p) { return p.id == r; }))
      seed.push_back(r);
  if (seed.empty())
    return;

  // May-be-unwritten forward dataflow: a write removes its vreg, and the
  // join is a union.  While a block is walked, mark[r] == epoch iff r is
  // in the set at the current point.
  std::vector<unsigned> mark(regs, 0);
  unsigned epoch = 0;
  auto load = [&](const Unwritten &in) {
    ++epoch;
    for (unsigned r : in)
      mark[r] = epoch;
  };
  auto transfer = [&](const ir::BasicBlock &block, const Unwritten &in,
                      ir::EdgeStates<Unwritten> &out) {
    load(in);
    for (const auto &instr : block.instrs())
      if (instr->dst && instr->dst->id < regs)
        mark[instr->dst->id] = 0;
    out.state[0].clear();
    for (unsigned r : in)
      if (mark[r] == epoch)
        out.state[0].push_back(r);
    const std::size_t succs = block.successors().size();
    if (succs == 2)
      out.state[1] = out.state[0];
    for (std::size_t e = 0; e < succs; ++e)
      out.feasible[e] = true;
  };
  const ir::DataflowOrder order = ir::dataflowOrder(fn);
  auto solved = ir::solveForwardDataflow(fn, order, std::move(seed),
                                         transfer, joinUnwritten);

  // Report the reads the converged states leave unwritten, each value once
  // per block walk.  Dedup on (vreg, location) so loops report once.
  std::set<std::pair<unsigned, std::pair<unsigned, unsigned>>> seen;
  for (const ir::WtoElement &e : order.wto) {
    const std::optional<Unwritten> &in = solved.in[e.block->id()];
    if (!in)
      continue;
    load(*in);
    for (const auto &instr : e.block->instrs()) {
      for (const auto &operand : instr->operands) {
        if (!operand.isReg() || operand.reg().id >= regs ||
            mark[operand.reg().id] != epoch)
          continue;
        if (seen.insert({operand.reg().id,
                         {instr->loc.line, instr->loc.column}})
                .second) {
          Diagnostic d;
          d.severity = Severity::Warning;
          d.code = "C2H-UNINIT-001";
          d.message = "value in function '" + fn.name() +
                      "' may be read before it is written";
          d.spans.push_back({instr->loc, "read here"});
          d.hint = "initialize the variable on every path before this use";
          report.add(std::move(d));
        }
        mark[operand.reg().id] = 0;
      }
      if (instr->dst && instr->dst->id < regs)
        mark[instr->dst->id] = 0;
    }
  }
}

} // namespace

Report lintUninitReads(const ir::Module &module) {
  Report report;
  for (const auto &fn : module.functions())
    lintFunctionUninit(*fn, report);
  return report;
}

} // namespace c2h::analysis
