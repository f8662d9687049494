#include "core/c2h.h"

#include "core/engine.h"
#include "vsim/cosim.h"

#include <atomic>

namespace c2h::core {

namespace {

std::atomic<std::uint64_t> goldenRuns{0};
std::atomic<std::uint64_t> fsmdRuns{0};

// The scalar type at the bottom of a (possibly nested) array type.
const Type *scalarLeaf(const Type *type) {
  while (type && type->isArray())
    type = type->element();
  return type && type->isScalar() ? type : nullptr;
}

// Width of `top`'s return value; 0 when it returns nothing to compare.
unsigned returnWidth(const ast::Program &program, const std::string &top) {
  const ast::FuncDecl *fn = program.findFunction(top);
  return fn && !fn->returnType->isVoid() ? fn->returnType->bitWidth() : 0;
}

bool sameReturn(unsigned width, const BitVector &golden, const BitVector &got) {
  return width == 0 ||
         got.resize(width, false) == golden.resize(width, false);
}

// The first checked global on which a witness disagrees with the golden
// run, as a row note; empty when every global agrees.  Narrower witness
// storage is extended by the *declared* signedness: a negative int<N> value
// whose storage is narrower than the declared width must be sign-extended,
// not zero-extended, before the bit-level compare.
template <class ReadGlobal>
std::string globalMismatch(const Workload &workload,
                           const ast::Program &program,
                           const GoldenRun &golden, ReadGlobal &&read,
                           const std::string &witness,
                           const std::string &sizeSuffix) {
  for (std::size_t g = 0; g < workload.checkGlobals.size(); ++g) {
    const std::string &name = workload.checkGlobals[g];
    const std::vector<BitVector> &want = golden.globals.at(g);
    std::vector<BitVector> got = read(name);
    if (want.size() != got.size())
      return "global '" + name + "' size mismatch" + sizeSuffix;
    const ast::VarDecl *decl = program.findGlobal(name);
    const Type *leaf = decl ? scalarLeaf(decl->type) : nullptr;
    bool isSigned = leaf && leaf->isSigned();
    for (std::size_t i = 0; i < want.size(); ++i)
      if (!(want[i] == got[i].resize(want[i].width(), isSigned)))
        return "global '" + name + "[" + std::to_string(i) +
               "]' mismatch: golden " + want[i].toStringHex() + " vs " +
               witness + " " + got[i].toStringHex();
  }
  return {};
}

// Why `result` has no synchronous RTL to co-simulate; null when it has.
const char *cosimSkipReason(const flows::FlowResult &result) {
  if (!result.accepted || !result.ok || (!result.asyncInfo && !result.design))
    return "flow produced no design";
  if (result.asyncInfo)
    return "asynchronous design (no synchronous RTL to co-simulate)";
  return nullptr;
}

} // namespace

std::uint64_t goldenModelRuns() {
  return goldenRuns.load(std::memory_order_relaxed);
}

std::uint64_t verifyFsmdRuns() {
  return fsmdRuns.load(std::memory_order_relaxed);
}

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

GoldenRun runGoldenModel(const Workload &workload,
                         const ast::Program &goldenProgram,
                         guard::ExecBudget *budget) {
  goldenRuns.fetch_add(1, std::memory_order_relaxed);
  GoldenRun g;
  // InterpOptions' default step budget is the real guard here: a
  // non-terminating workload surfaces as a structured StepLimit verdict
  // instead of hanging verification.
  InterpOptions iopts;
  iopts.budget = budget;
  Interpreter interp(goldenProgram, iopts);
  auto r = interp.call(workload.top,
                       argBits(goldenProgram, workload.top, workload.args));
  if (!r.ok) {
    g.detail = "interpreter: " + r.error;
    g.verdict = r.verdict;
    return g;
  }
  g.ok = true;
  g.returnValue = r.returnValue;
  for (const auto &name : workload.checkGlobals)
    g.globals.push_back(interp.readGlobal(name));
  return g;
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
  GoldenRun g = runGoldenModel(workload, *program);
  v.ok = g.ok;
  v.detail = g.detail;
  v.verdict = g.verdict;
  v.returnValue = g.returnValue;
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
  // No golden run for a design that was never produced.
  if (!result.accepted || !result.ok)
    return verifyAgainstGoldenModel(workload, result, goldenProgram,
                                    GoldenRun{}, budget);
  return verifyAgainstGoldenModel(
      workload, result, goldenProgram,
      runGoldenModel(workload, goldenProgram, budget), budget);
}

Verification verifyAgainstGoldenModel(const Workload &workload,
                                      const flows::FlowResult &result,
                                      const ast::Program &goldenProgram,
                                      const GoldenRun &golden,
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
  if (!golden.ok) {
    v.detail = golden.detail;
    v.verdict = golden.verdict;
    return v;
  }
  std::vector<BitVector> args =
      argBits(goldenProgram, workload.top, workload.args);
  unsigned width = returnWidth(goldenProgram, workload.top);

  // Asynchronous (CASH) designs: event-driven dataflow timing simulation.
  if (result.asyncInfo) {
    sched::TechLibrary lib;
    async::AsyncSimOptions aopts;
    aopts.budget = budget;
    auto r = async::simulateAsync(*result.module, workload.top, args, lib,
                                  aopts);
    if (!r.ok) {
      v.detail = "async simulation: " + r.error;
      v.verdict = r.verdict;
      return v;
    }
    if (!sameReturn(width, golden.returnValue, r.returnValue)) {
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
  fsmdRuns.fetch_add(1, std::memory_order_relaxed);
  rtl::SimOptions sopts;
  sopts.budget = budget;
  rtl::Simulator sim(*result.design, sopts);
  auto r = sim.run(args);
  if (!r.ok) {
    v.detail = "rtl simulation: " + r.error;
    v.verdict = r.verdict;
    return v;
  }
  if (!sameReturn(width, golden.returnValue, r.returnValue)) {
    v.detail = "return value mismatch: golden " +
               golden.returnValue.toStringHex() + " vs rtl " +
               r.returnValue.toStringHex();
    return v;
  }
  v.detail = globalMismatch(
      workload, goldenProgram, golden,
      [&](const std::string &name) { return sim.readGlobal(name); }, "rtl",
      "");
  if (!v.detail.empty())
    return v;
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
  if (const char *why = cosimSkipReason(result)) {
    CosimVerification c;
    c.detail = why;
    return c;
  }
  // Witness 1: the reference interpreter.
  GoldenRun golden = runGoldenModel(workload, goldenProgram, budget);
  if (!golden.ok)
    return cosimAgainstGoldenModel(workload, result, goldenProgram, golden, 0,
                                   engine, budget, modelCache);

  // Witness 2: the FSMD simulator (the cycle count the experiments quote).
  fsmdRuns.fetch_add(1, std::memory_order_relaxed);
  rtl::SimOptions sopts;
  sopts.budget = budget;
  rtl::Simulator sim(*result.design, sopts);
  auto fsmd =
      sim.run(argBits(goldenProgram, workload.top, workload.args));
  if (!fsmd.ok) {
    CosimVerification c;
    c.ran = true;
    c.detail = "rtl simulation: " + fsmd.error;
    c.verdict = fsmd.verdict;
    return c;
  }
  return cosimAgainstGoldenModel(workload, result, goldenProgram, golden,
                                 fsmd.cycles, engine, budget, modelCache);
}

CosimVerification cosimAgainstGoldenModel(const Workload &workload,
                                          const flows::FlowResult &result,
                                          const ast::Program &goldenProgram,
                                          const GoldenRun &golden,
                                          std::uint64_t fsmdCycles,
                                          vsim::SimEngine engine,
                                          guard::ExecBudget *budget,
                                          vsim::ModelCache *modelCache) {
  CosimVerification c;
  if (const char *why = cosimSkipReason(result)) {
    c.detail = why;
    return c;
  }
  c.ran = true;
  if (!golden.ok) {
    c.detail = golden.detail;
    c.verdict = golden.verdict;
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
  vsim::CosimResult r = cosim.run(
      argBits(goldenProgram, workload.top, workload.args), copts);
  c.cycles = r.cycles;
  c.degradation = r.degradation;
  c.engine = vsim::engineName(r.engine);
  c.fallback = cosim.compileNote();
  if (!r.ok) {
    c.detail = r.error;
    c.verdict = r.verdict;
    return c;
  }

  if (!sameReturn(returnWidth(goldenProgram, workload.top),
                  golden.returnValue, r.returnValue)) {
    c.detail = "vsim return value mismatch: golden " +
               golden.returnValue.toStringHex() + " vs vsim " +
               r.returnValue.toStringHex();
    return c;
  }
  if (r.cycles != fsmdCycles) {
    c.detail = "cycle count mismatch: fsmd " + std::to_string(fsmdCycles) +
               " vs vsim " + std::to_string(r.cycles);
    return c;
  }
  c.detail = globalMismatch(
      workload, goldenProgram, golden,
      [&](const std::string &name) { return cosim.readGlobal(name); },
      "vsim", " under vsim");
  c.ok = c.detail.empty();
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
