#include "core/c2h.h"

#include "core/engine.h"
#include "vsim/cosim.h"

namespace c2h::core {

namespace {

// The scalar type at the bottom of a (possibly nested) array type.
const Type *scalarLeaf(const Type *type) {
  while (type && type->isArray())
    type = type->element();
  return type && type->isScalar() ? type : nullptr;
}

} // namespace

std::vector<BitVector> argBits(const ast::Program &program,
                               const std::string &fn,
                               const std::vector<std::int64_t> &args) {
  std::vector<BitVector> out;
  const ast::FuncDecl *decl = program.findFunction(fn);
  for (std::size_t i = 0; i < args.size(); ++i) {
    unsigned width = 32;
    if (decl && i < decl->params.size() && decl->params[i]->type->isScalar())
      width = decl->params[i]->type->bitWidth();
    out.push_back(BitVector::fromInt(width, args[i]));
  }
  return out;
}

Verification runGoldenModel(const Workload &workload) {
  Verification v;
  TypeContext types;
  DiagnosticEngine diags;
  auto program = frontend(workload.source, types, diags);
  if (!program) {
    v.detail = "frontend: " + diags.str();
    return v;
  }
  Interpreter interp(*program);
  auto r = interp.call(workload.top,
                       argBits(*program, workload.top, workload.args));
  if (!r.ok) {
    v.detail = "interpreter: " + r.error;
    return v;
  }
  v.ok = true;
  v.returnValue = r.returnValue;
  return v;
}

Verification verifyAgainstGoldenModel(const Workload &workload,
                                      const flows::FlowResult &result,
                                      guard::ExecBudget *budget) {
  TypeContext types;
  DiagnosticEngine diags;
  auto program = frontend(workload.source, types, diags);
  if (!program) {
    Verification v;
    v.detail = "frontend: " + diags.str();
    return v;
  }
  return verifyAgainstGoldenModel(workload, result, *program, budget);
}

Verification verifyAgainstGoldenModel(const Workload &workload,
                                      const flows::FlowResult &result,
                                      const ast::Program &goldenProgram,
                                      guard::ExecBudget *budget) {
  Verification v;
  if (!result.accepted) {
    v.detail = "flow rejected the program";
    return v;
  }
  if (!result.ok) {
    v.detail = "flow failed: " + result.error;
    v.verdict = result.verdict;
    return v;
  }

  // Golden model.  InterpOptions' default step budget is the real guard
  // here: a non-terminating workload surfaces as a structured StepLimit
  // verdict instead of hanging verification.
  const ast::Program *program = &goldenProgram;
  std::vector<BitVector> args =
      argBits(*program, workload.top, workload.args);
  InterpOptions iopts;
  iopts.budget = budget;
  Interpreter interp(*program, iopts);
  auto golden = interp.call(workload.top, args);
  if (!golden.ok) {
    v.detail = "interpreter: " + golden.error;
    v.verdict = golden.verdict;
    return v;
  }
  const ast::FuncDecl *fn = program->findFunction(workload.top);
  bool hasReturn = fn && !fn->returnType->isVoid();
  unsigned retWidth = hasReturn ? fn->returnType->bitWidth() : 1;

  // Asynchronous (CASH) designs: event-driven dataflow timing simulation.
  if (result.asyncInfo) {
    sched::TechLibrary lib;
    auto r = async::simulateAsync(*result.module, workload.top, args, lib);
    if (!r.ok) {
      v.detail = "async simulation: " + r.error;
      return v;
    }
    if (hasReturn &&
        !(r.returnValue.resize(retWidth, false) ==
          golden.returnValue.resize(retWidth, false))) {
      v.detail = "async return value mismatch: golden " +
                 golden.returnValue.toStringHex() + " vs " +
                 r.returnValue.toStringHex();
      return v;
    }
    v.ok = true;
    v.asyncNs = r.timeNs;
    v.returnValue = golden.returnValue;
    return v;
  }

  // Synchronous designs: cycle-accurate FSMD simulation.
  if (!result.design) {
    v.detail = "flow produced no design";
    return v;
  }
  rtl::SimOptions sopts;
  sopts.budget = budget;
  rtl::Simulator sim(*result.design, sopts);
  auto r = sim.run(args);
  if (!r.ok) {
    v.detail = "rtl simulation: " + r.error;
    v.verdict = r.verdict;
    return v;
  }
  if (hasReturn &&
      !(r.returnValue.resize(retWidth, false) ==
        golden.returnValue.resize(retWidth, false))) {
    v.detail = "return value mismatch: golden " +
               golden.returnValue.toStringHex() + " vs rtl " +
               r.returnValue.toStringHex();
    return v;
  }
  for (const auto &name : workload.checkGlobals) {
    auto gi = interp.readGlobal(name);
    auto gr = sim.readGlobal(name);
    if (gi.size() != gr.size()) {
      v.detail = "global '" + name + "' size mismatch";
      return v;
    }
    // Extend narrower RTL storage by the *declared* signedness: a negative
    // int<N> value whose storage is narrower than the declared width must
    // be sign-extended, not zero-extended, before the bit-level compare.
    const ast::VarDecl *decl = program->findGlobal(name);
    const Type *leaf = decl ? scalarLeaf(decl->type) : nullptr;
    bool isSigned = leaf && leaf->isSigned();
    for (std::size_t i = 0; i < gi.size(); ++i) {
      if (!(gi[i] == gr[i].resize(gi[i].width(), isSigned))) {
        v.detail = "global '" + name + "[" + std::to_string(i) +
                   "]' mismatch: golden " + gi[i].toStringHex() + " vs rtl " +
                   gr[i].toStringHex();
        return v;
      }
    }
  }
  v.ok = true;
  v.cycles = r.cycles;
  v.returnValue = golden.returnValue;
  return v;
}

CosimVerification cosimAgainstGoldenModel(const Workload &workload,
                                          const flows::FlowResult &result,
                                          vsim::SimEngine engine,
                                          guard::ExecBudget *budget,
                                          vsim::ModelCache *modelCache) {
  TypeContext types;
  DiagnosticEngine diags;
  auto program = frontend(workload.source, types, diags);
  if (!program) {
    CosimVerification c;
    c.detail = "frontend: " + diags.str();
    return c;
  }
  return cosimAgainstGoldenModel(workload, result, *program, engine, budget,
                                 modelCache);
}

CosimVerification cosimAgainstGoldenModel(const Workload &workload,
                                          const flows::FlowResult &result,
                                          const ast::Program &goldenProgram,
                                          vsim::SimEngine engine,
                                          guard::ExecBudget *budget,
                                          vsim::ModelCache *modelCache,
                                          bool) {
  CosimVerification c;
  if (!result.accepted || !result.ok) {
    c.detail = "flow produced no design";
    return c;
  }
  if (result.asyncInfo) {
    c.detail = "asynchronous design (no synchronous RTL to co-simulate)";
    return c;
  }
  if (!result.design) {
    c.detail = "flow produced no design";
    return c;
  }
  c.ran = true;

  // Witness 1: the reference interpreter.
  std::vector<BitVector> args =
      argBits(goldenProgram, workload.top, workload.args);
  InterpOptions iopts;
  iopts.budget = budget;
  Interpreter interp(goldenProgram, iopts);
  auto golden = interp.call(workload.top, args);
  if (!golden.ok) {
    c.detail = "interpreter: " + golden.error;
    c.verdict = golden.verdict;
    return c;
  }

  // Witness 2: the FSMD simulator (return value and the cycle count the
  // experiments quote).
  rtl::SimOptions sopts;
  sopts.budget = budget;
  rtl::Simulator sim(*result.design, sopts);
  auto fsmd = sim.run(args);
  if (!fsmd.ok) {
    c.detail = "rtl simulation: " + fsmd.error;
    c.verdict = fsmd.verdict;
    return c;
  }

  // Witness 3: the emitted Verilog text, re-executed by vsim.
  vsim::Cosimulation cosim(*result.design, modelCache);
  if (!cosim.valid()) {
    c.detail = cosim.error();
    c.verdict = cosim.verdict();
    return c;
  }
  vsim::CosimOptions copts;
  copts.engine = engine;
  copts.budget = budget;
  vsim::CosimResult r = cosim.run(args, copts);
  c.cycles = r.cycles;
  c.degradation = r.degradation;
  c.engine =
      cosim.engineUsed() == vsim::SimEngine::Event ? "event" : "compiled";
  c.fallback = cosim.compileNote();
  if (!r.ok) {
    c.detail = r.error;
    c.verdict = r.verdict;
    return c;
  }

  const ast::FuncDecl *fn = goldenProgram.findFunction(workload.top);
  bool hasReturn = fn && !fn->returnType->isVoid();
  unsigned retWidth = hasReturn ? fn->returnType->bitWidth() : 1;
  if (hasReturn &&
      !(r.returnValue.resize(retWidth, false) ==
        golden.returnValue.resize(retWidth, false))) {
    c.detail = "vsim return value mismatch: golden " +
               golden.returnValue.toStringHex() + " vs vsim " +
               r.returnValue.toStringHex();
    return c;
  }
  if (r.cycles != fsmd.cycles) {
    c.detail = "cycle count mismatch: fsmd " +
               std::to_string(fsmd.cycles) + " vs vsim " +
               std::to_string(r.cycles);
    return c;
  }
  for (const auto &name : workload.checkGlobals) {
    auto gi = interp.readGlobal(name);
    auto gv = cosim.readGlobal(name);
    if (gi.size() != gv.size()) {
      c.detail = "global '" + name + "' size mismatch under vsim";
      return c;
    }
    const ast::VarDecl *decl = goldenProgram.findGlobal(name);
    const Type *leaf = decl ? scalarLeaf(decl->type) : nullptr;
    bool isSigned = leaf && leaf->isSigned();
    for (std::size_t i = 0; i < gi.size(); ++i) {
      if (!(gi[i] == gv[i].resize(gi[i].width(), isSigned))) {
        c.detail = "global '" + name + "[" + std::to_string(i) +
                   "]' mismatch: golden " + gi[i].toStringHex() +
                   " vs vsim " + gv[i].toStringHex();
        return c;
      }
    }
  }
  c.ok = true;
  return c;
}

std::vector<FlowComparison> compareFlows(const Workload &workload,
                                         const flows::FlowTuning &tuning) {
  // One process-wide engine so repeated comparisons (benchmark loops, the
  // survey) share the front-end cache.  CompareEngine is thread-safe.
  static CompareEngine engine;
  return engine.compareFlows(workload, tuning);
}

} // namespace c2h::core
