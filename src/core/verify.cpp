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

// How one witness names itself in a mismatch note.
struct WitnessNames {
  const char *returnPrefix; // before "return value mismatch"
  const char *name;         // before the witness's value ("rtl " / "vsim ")
  const char *sizeSuffix;   // after a global's "size mismatch"
};
constexpr WitnessNames kFsmdNames{"", "rtl ", ""};
constexpr WitnessNames kVsimNames{"vsim ", "vsim ", " under vsim"};
constexpr WitnessNames kAsyncNames{"async ", "", ""};

std::string returnMismatch(const WitnessNames &names, const BitVector &golden,
                           const BitVector &got) {
  return std::string(names.returnPrefix) + "return value mismatch: golden " +
         golden.toStringHex() + " vs " + names.name + got.toStringHex();
}

// The first disagreement of a completed witness run with the golden run, as
// a row note; empty when they agree.  The return value is compared first,
// then the cycle count when `fsmdCycles` is given (vsim against the FSMD
// simulator), then every checked global bit for bit.  Narrower witness
// storage is extended by the *declared* signedness: a negative int<N> value
// whose storage is narrower than the declared width must be sign-extended,
// not zero-extended, before the bit-level compare.
std::string witnessMismatch(const Workload &workload,
                            const ast::Program &program,
                            const GoldenRun &golden, const GoldenRun &run,
                            const WitnessNames &names,
                            const std::uint64_t *fsmdCycles) {
  if (!sameReturn(returnWidth(program, workload.top), golden.returnValue,
                  run.returnValue))
    return returnMismatch(names, golden.returnValue, run.returnValue);
  if (fsmdCycles && run.cycles != *fsmdCycles)
    return "cycle count mismatch: fsmd " + std::to_string(*fsmdCycles) +
           " vs vsim " + std::to_string(run.cycles);
  for (std::size_t g = 0; g < workload.checkGlobals.size(); ++g) {
    const std::string &name = workload.checkGlobals[g];
    const std::vector<BitVector> &want = golden.globals.at(g);
    const std::vector<BitVector> &got = run.globals.at(g);
    if (want.size() != got.size())
      return "global '" + name + "' size mismatch" + names.sizeSuffix;
    const ast::VarDecl *decl = program.findGlobal(name);
    const Type *leaf = decl ? scalarLeaf(decl->type) : nullptr;
    bool isSigned = leaf && leaf->isSigned();
    for (std::size_t i = 0; i < want.size(); ++i)
      if (!(want[i] == got[i].resize(want[i].width(), isSigned)))
        return "global '" + name + "[" + std::to_string(i) +
               "]' mismatch: golden " + want[i].toStringHex() + " vs " +
               names.name + got[i].toStringHex();
  }
  return {};
}

// Each of workload.checkGlobals as `read` reports it after a run.
template <class ReadGlobal>
std::vector<std::vector<BitVector>> readGlobals(const Workload &workload,
                                                ReadGlobal &&read) {
  std::vector<std::vector<BitVector>> out;
  for (const auto &name : workload.checkGlobals)
    out.push_back(read(name));
  return out;
}

} // namespace

const char *cosimSkipReason(const flows::FlowResult &result) {
  if (!result.accepted || !result.ok || (!result.asyncInfo && !result.design))
    return "flow produced no design";
  if (result.asyncInfo)
    return "asynchronous design (no synchronous RTL to co-simulate)";
  return nullptr;
}

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
  // The constructor allocates the program's globals, which an alloc budget
  // or an injected guard.alloc fault can stop; call() contains the rest.
  std::optional<Interpreter> interp;
  try {
    interp.emplace(goldenProgram, iopts);
  } catch (const guard::GuardEvent &e) {
    g.detail = "interpreter: " + e.verdict.str();
    g.verdict = e.verdict;
    return g;
  }
  auto r = interp->call(workload.top,
                        argBits(goldenProgram, workload.top, workload.args));
  if (!r.ok) {
    g.detail = "interpreter: " + r.error;
    g.verdict = r.verdict;
    return g;
  }
  g.ok = true;
  g.returnValue = r.returnValue;
  g.globals = readGlobals(
      workload, [&](const std::string &name) { return interp->readGlobal(name); });
  return g;
}

GoldenRun runFsmdModel(const Workload &workload, const rtl::Design &design,
                       const ast::Program &goldenProgram,
                       guard::ExecBudget *budget) {
  fsmdRuns.fetch_add(1, std::memory_order_relaxed);
  GoldenRun run;
  rtl::SimOptions sopts;
  sopts.budget = budget;
  rtl::Simulator sim(design, sopts);
  rtl::SimResult r =
      sim.run(argBits(goldenProgram, workload.top, workload.args));
  if (!r.ok) {
    run.detail = "rtl simulation: " + r.error;
    run.verdict = r.verdict;
    return run;
  }
  run.ok = true;
  run.cycles = r.cycles;
  run.returnValue = r.returnValue;
  run.globals = readGlobals(
      workload, [&](const std::string &name) { return sim.readGlobal(name); });
  return run;
}

GoldenRun runVsimModel(const Workload &workload, const rtl::Design &design,
                       const ast::Program &goldenProgram,
                       vsim::SimEngine engine, guard::ExecBudget *budget,
                       vsim::ModelCache *modelCache, std::string verilog) {
  GoldenRun run;
  vsim::Cosimulation cosim(design, std::move(verilog), modelCache);
  if (!cosim.valid()) {
    run.detail = cosim.error();
    run.verdict = cosim.verdict();
    return run;
  }
  vsim::CosimOptions copts;
  copts.engine = engine;
  copts.budget = budget;
  vsim::CosimResult r = cosim.run(
      argBits(goldenProgram, workload.top, workload.args), copts);
  run.cycles = r.cycles;
  run.degradation = r.degradation;
  run.engine = vsim::engineName(r.engine);
  run.fallback = cosim.compileNote();
  if (!r.ok) {
    run.detail = r.error;
    run.verdict = r.verdict;
    return run;
  }
  run.ok = true;
  run.returnValue = r.returnValue;
  run.globals = readGlobals(workload, [&](const std::string &name) {
    return cosim.readGlobal(name);
  });
  return run;
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

  // Asynchronous (CASH) designs: event-driven dataflow timing simulation.
  if (result.asyncInfo) {
    sched::TechLibrary lib;
    async::AsyncSimOptions aopts;
    aopts.budget = budget;
    auto r = async::simulateAsync(
        *result.module, workload.top,
        argBits(goldenProgram, workload.top, workload.args), lib, aopts);
    if (!r.ok) {
      v.detail = "async simulation: " + r.error;
      v.verdict = r.verdict;
      return v;
    }
    if (!sameReturn(returnWidth(goldenProgram, workload.top),
                    golden.returnValue, r.returnValue)) {
      v.detail = returnMismatch(kAsyncNames, golden.returnValue, r.returnValue);
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
  return verifyFsmdRun(
      workload, goldenProgram, golden,
      runFsmdModel(workload, *result.design, goldenProgram, budget));
}

Verification verifyFsmdRun(const Workload &workload,
                           const ast::Program &goldenProgram,
                           const GoldenRun &golden, const GoldenRun &fsmd) {
  Verification v;
  const GoldenRun &failed = golden.ok ? fsmd : golden;
  if (!failed.ok) {
    v.detail = failed.detail;
    v.verdict = failed.verdict;
    return v;
  }
  v.detail = witnessMismatch(workload, goldenProgram, golden, fsmd,
                             kFsmdNames, nullptr);
  if (!v.detail.empty())
    return v;
  v.ok = true;
  v.cycles = fsmd.cycles;
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
  GoldenRun fsmd =
      runFsmdModel(workload, *result.design, goldenProgram, budget);
  if (!fsmd.ok) {
    CosimVerification c;
    c.ran = true;
    c.detail = fsmd.detail;
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
  if (const char *why = cosimSkipReason(result)) {
    CosimVerification c;
    c.detail = why;
    return c;
  }
  // Witness 3: the emitted Verilog text, re-executed by vsim — unless the
  // golden run already failed.
  return verifyVsimRun(workload, goldenProgram, golden, fsmdCycles,
                       golden.ok ? runVsimModel(workload, *result.design,
                                                goldenProgram, engine, budget,
                                                modelCache)
                                 : GoldenRun{});
}

CosimVerification verifyVsimRun(const Workload &workload,
                                const ast::Program &goldenProgram,
                                const GoldenRun &golden,
                                std::uint64_t fsmdCycles,
                                const GoldenRun &vsim) {
  CosimVerification c;
  c.ran = true;
  if (!golden.ok) {
    c.detail = golden.detail;
    c.verdict = golden.verdict;
    return c;
  }
  c.cycles = vsim.cycles;
  c.degradation = vsim.degradation;
  c.engine = vsim.engine;
  c.fallback = vsim.fallback;
  if (!vsim.ok) {
    c.detail = vsim.detail;
    c.verdict = vsim.verdict;
    return c;
  }
  c.detail = witnessMismatch(workload, goldenProgram, golden, vsim,
                             kVsimNames, &fsmdCycles);
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
