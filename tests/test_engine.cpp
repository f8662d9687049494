// The flow-comparison engine's three contracts:
//  1. Fault isolation — a flow that throws becomes one "internal error:"
//     row; every other row is produced as if nothing happened.
//  2. Determinism — parallel and serial comparisons produce identical rows
//     (order and content) over the full standard workload suite.
//  3. Front-end cache hygiene — one compile per (source, top), and every
//     flow gets a private AST clone: mutating one clone never leaks into
//     another or into the cached program.
//  4. Shared prefix — the range gate and the optimize/prune step run once
//     per distinct lowered module in a request, counted by the range
//     solver's call counter.
#include "analysis/analyzer.h"
#include "analysis/lints.h"
#include "analysis/range.h"
#include "core/engine.h"
#include "serve/protocol.h"
#include "opt/astclone.h"
#include "support/guard.h"
#include "support/threadpool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <regex>
#include <set>
#include <stdexcept>

namespace c2h {
namespace {

core::CompareEngine::FlowRunner throwingRunner(const std::string &victimId) {
  return [victimId](const flows::FlowSpec &spec, ast::Program &program,
                    TypeContext &types, const std::string &top,
                    const flows::FlowTuning &tuning) {
    if (spec.info.id == victimId)
      throw std::runtime_error("deliberate test crash in " + victimId);
    return flows::runFlowChecked(spec, program, types, top, tuning);
  };
}

void expectRowsEqual(const std::vector<core::FlowComparison> &a,
                     const std::vector<core::FlowComparison> &b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].flowId, b[i].flowId) << i;
    EXPECT_EQ(a[i].accepted, b[i].accepted) << a[i].flowId;
    EXPECT_EQ(a[i].verified, b[i].verified) << a[i].flowId;
    EXPECT_EQ(a[i].note, b[i].note) << a[i].flowId;
    EXPECT_EQ(a[i].cycles, b[i].cycles) << a[i].flowId;
    EXPECT_EQ(a[i].areaTotal, b[i].areaTotal) << a[i].flowId;
    EXPECT_EQ(a[i].fmaxMHz, b[i].fmaxMHz) << a[i].flowId;
    EXPECT_EQ(a[i].asyncNs, b[i].asyncNs) << a[i].flowId;
  }
}

TEST(Engine, ThrowingFlowLeavesOtherRowsIntact) {
  const auto &w = core::findWorkload("crc8small");

  core::CompareEngine clean;
  auto expected = clean.compareFlows(w);

  core::CompareEngine sabotaged;
  sabotaged.setRunnerForTesting(throwingRunner("handelc"));
  auto rows = sabotaged.compareFlows(w);

  ASSERT_EQ(rows.size(), expected.size());
  bool sawVictim = false;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (rows[i].flowId == "handelc") {
      sawVictim = true;
      EXPECT_FALSE(rows[i].accepted);
      EXPECT_FALSE(rows[i].verified);
      EXPECT_EQ(rows[i].note.rfind("internal error:", 0), 0u)
          << rows[i].note;
      EXPECT_NE(rows[i].note.find("deliberate test crash"),
                std::string::npos);
    } else {
      expectRowsEqual({rows[i]}, {expected[i]});
    }
  }
  EXPECT_TRUE(sawVictim);
}

TEST(Engine, ThrowingFlowIsIsolatedInSerialModeToo) {
  const auto &w = core::findWorkload("gcd");
  core::CompareEngine engine;
  engine.setRunnerForTesting(throwingRunner("bachc"));
  flows::FlowTuning serial;
  serial.jobs = 1;
  auto rows = engine.compareFlows(w, serial);
  for (const auto &r : rows)
    if (r.flowId == "bachc")
      EXPECT_EQ(r.note.rfind("internal error:", 0), 0u) << r.note;
}

TEST(Engine, ParallelMatchesSerialOnTheFullSuite) {
  // The acceptance bar: jobs>1 output must be identical in order and
  // content to jobs=1 over every standard workload.
  core::CompareEngine engine;
  flows::FlowTuning serial, parallel;
  serial.jobs = 1;
  parallel.jobs = 4;
  auto serialRows = engine.compareMatrix(core::standardWorkloads(), serial);
  auto parallelRows =
      engine.compareMatrix(core::standardWorkloads(), parallel);
  ASSERT_EQ(serialRows.size(), parallelRows.size());
  for (std::size_t i = 0; i < serialRows.size(); ++i)
    expectRowsEqual(serialRows[i], parallelRows[i]);
}

TEST(Engine, MatrixAgreesWithPerWorkloadComparisons) {
  core::CompareEngine engine;
  std::vector<core::Workload> suite = {core::findWorkload("gcd"),
                                       core::findWorkload("crc8small")};
  auto matrix = engine.compareMatrix(suite);
  ASSERT_EQ(matrix.size(), 2u);
  for (std::size_t i = 0; i < suite.size(); ++i)
    expectRowsEqual(matrix[i], engine.compareFlows(suite[i]));
}

TEST(Engine, InjectedFaultUnderParallelJobsStaysIsolated) {
  // Satellite of the chaos PR: with jobs=N and an armed stage fault,
  // exactly one cell takes the fault (which one is scheduling-dependent,
  // but the count is not), siblings are untouched, and the engine's shared
  // state — including the front-end cache — stays clean for later runs.
  guard::disarmFaults();
  const auto &w = core::findWorkload("gcd");
  core::CompareEngine engine;
  flows::FlowTuning parallel;
  parallel.jobs = 4;

  guard::armFault("flow.lower");
  auto armed = engine.compareFlows(w, parallel);
  guard::disarmFaults();

  std::size_t injected = 0;
  for (const auto &r : armed)
    if (r.verdict.kind == guard::Kind::InjectedFault) {
      ++injected;
      EXPECT_FALSE(r.verified) << r.flowId;
      EXPECT_EQ(r.verdict.site, "flow.lower") << r.flowId;
      EXPECT_NE(r.note.find("INJECTED_FAULT"), std::string::npos) << r.note;
    }
  EXPECT_EQ(injected, 1u);

  // The same engine, disarmed, must now be indistinguishable from one that
  // never saw a fault.
  auto clean = engine.compareFlows(w, parallel);
  core::CompareEngine fresh;
  expectRowsEqual(clean, fresh.compareFlows(w, parallel));
  for (const auto &r : clean)
    EXPECT_EQ(static_cast<int>(r.verdict.kind),
              static_cast<int>(guard::Kind::None))
        << r.flowId << ": " << r.note;
}

TEST(Engine, ArmedFaultTakesTheSameCellAtAnyJobs) {
  // Fault hit counters are process-wide, so while a fault is armed the
  // engine runs cells serially in cell order: `site:nth` then names the
  // same cell at every jobs value.
  guard::disarmFaults();
  const auto &w = core::findWorkload("gcd");
  auto armedRun = [&w](unsigned jobs) {
    core::CompareEngine engine;
    flows::FlowTuning tuning;
    tuning.jobs = jobs;
    guard::armFault("flow.lower", 3);
    auto rows = engine.compareFlows(w, tuning);
    guard::disarmFaults();
    return rows;
  };
  auto serial = armedRun(1);
  std::size_t injected = 0;
  for (const auto &r : serial)
    injected += r.verdict.kind == guard::Kind::InjectedFault;
  EXPECT_EQ(injected, 1u);
  for (int i = 0; i < 5; ++i) {
    auto parallel = armedRun(4);
    expectRowsEqual(serial, parallel);
    for (std::size_t f = 0; f < serial.size(); ++f)
      EXPECT_EQ(parallel[f].verdict.kind, serial[f].verdict.kind)
          << serial[f].flowId;
  }
}

TEST(Engine, CellsCarryTheirResultAndGoldenRun) {
  const auto &w = core::findWorkload("gcd");
  core::CompareEngine engine;
  flows::FlowTuning tuning;
  tuning.jobs = 4;
  const auto &specs = flows::allFlows();
  std::vector<core::Cell> cells(specs.size());
  std::vector<int> calls(specs.size(), 0);
  engine.compareCells({&w, 1}, specs, tuning, {},
                      [&](std::size_t wi, std::size_t f, core::Cell &&cell) {
                        EXPECT_EQ(wi, 0u);
                        ++calls[f];
                        cells[f] = std::move(cell);
                      });
  std::vector<core::FlowComparison> rows;
  for (std::size_t f = 0; f < specs.size(); ++f) {
    EXPECT_EQ(calls[f], 1) << specs[f].info.id;
    rows.push_back(cells[f].row);
    const core::Cell &cell = cells[f];
    ASSERT_TRUE(cell.result) << specs[f].info.id;
    EXPECT_EQ(cell.result->accepted, cell.row.accepted);
    // The check half ran exactly for the cells whose flow succeeded.
    EXPECT_EQ(cell.golden != nullptr, cell.result->ok) << specs[f].info.id;
    if (cell.row.verified) {
      EXPECT_TRUE(cell.golden->ok);
    }
  }
  expectRowsEqual(rows, core::CompareEngine().compareFlows(w, tuning));

  // The pipeline half alone synthesizes without any golden run.
  const std::uint64_t goldenBefore = core::goldenModelRuns();
  core::Cell synthesized = engine.synthesize(*flows::findFlow("bachc"), w);
  EXPECT_EQ(core::goldenModelRuns(), goldenBefore);
  ASSERT_TRUE(synthesized.result);
  EXPECT_TRUE(synthesized.result->ok);
  EXPECT_TRUE(synthesized.result->design);
  EXPECT_FALSE(synthesized.golden);
  EXPECT_FALSE(synthesized.row.verified);
}

// One workload's distinct lowered modules as runFlowChecked's stages produce
// them, computed here from the public stage functions: the raw modules that
// reach the range gate, and the optimizer outputs that reach dead-branch
// pruning.
struct DistinctModules {
  std::set<std::string> raw, optimized;
};

DistinctModules distinctModules(const core::Workload &w) {
  DistinctModules out;
  TypeContext types;
  DiagnosticEngine diags;
  std::unique_ptr<ast::Program> pristine = frontend(w.source, types, diags);
  EXPECT_NE(pristine, nullptr) << w.name << ": " << diags.str();
  if (!pristine)
    return out;
  const FeatureSet features = analyzeFeatures(*pristine);
  const bool preflightOk =
      !analysis::preflightFlow(*pristine, w.top, false).hasErrors();
  for (const auto &spec : flows::allFlows()) {
    bool rejected = false;
    for (const auto &rule : spec.rejects)
      rejected |= features.has(rule.first);
    if (rejected || !preflightOk)
      continue;
    std::unique_ptr<ast::Program> program = opt::cloneProgram(*pristine);
    DiagnosticEngine stageDiags;
    opt::inlineFunctions(*program, types, stageDiags);
    opt::removeUnusedFunctions(*program, w.top);
    opt::UnrollOptions unroll;
    unroll.unrollAll = spec.unrollAllLoops;
    opt::unrollLoops(*program, stageDiags, unroll);
    if (stageDiags.hasErrors())
      continue;
    if ((spec.unrollAllLoops || spec.requireCombinational) &&
        analysis::lintUnboundedLoops(*program, analysis::Severity::Error)
            .hasErrors())
      continue;
    ir::LowerOptions lower;
    lower.forceUnifiedMemory = spec.forceUnifiedMemory;
    std::unique_ptr<ir::Module> module =
        ir::lowerToIR(*program, stageDiags, lower);
    if (!module)
      continue;
    out.raw.insert(ir::fingerprint(*module).text);
    if (!spec.optimizeIr || analysis::checkRanges(*module).hasErrors())
      continue;
    opt::optimizeModule(*module);
    out.optimized.insert(ir::fingerprint(*module).text);
  }
  return out;
}

TEST(Engine, RangeSolverRunsOncePerDistinctModule) {
  // Per workload: at most one solve for the front-end cache's analyzer, one
  // per distinct raw module (the range gate), and one per distinct
  // optimizer output (dead-branch pruning) — not one per flow.
  const std::vector<core::Workload> &suite = core::standardWorkloads();
  std::uint64_t bound = 0;
  for (const auto &w : suite) {
    DistinctModules d = distinctModules(w);
    bound += 1 + d.raw.size() + d.optimized.size();
  }

  auto countedPass = [&](unsigned jobs, std::uint64_t &solves) {
    core::CompareEngine engine; // fresh: every workload compiles
    flows::FlowTuning tuning;
    tuning.jobs = jobs;
    std::uint64_t before = analysis::analyzeRangesCalls();
    auto rows = engine.compareMatrix(suite, tuning);
    solves = analysis::analyzeRangesCalls() - before;
    return rows;
  };
  std::uint64_t serialSolves = 0, parallelSolves = 0;
  auto serialRows = countedPass(1, serialSolves);
  auto parallelRows = countedPass(4, parallelSolves);
  RecordProperty("bound", std::to_string(bound));
  RecordProperty("solves", std::to_string(serialSolves));
  EXPECT_LE(serialSolves, bound);
  EXPECT_EQ(parallelSolves, serialSolves);
  ASSERT_EQ(serialRows.size(), parallelRows.size());
  for (std::size_t i = 0; i < serialRows.size(); ++i)
    expectRowsEqual(serialRows[i], parallelRows[i]);
}

TEST(Engine, GoldenModelRunsOncePerWorkload) {
  // One cosim pass over the registry runs the golden model once per
  // workload, not once per verified cell plus once per cosim cell, and the
  // FSMD simulator once per synchronous cell: cosim takes both witnesses
  // from the verify step.  Both counts are deterministic for any jobs.
  const std::vector<core::Workload> &suite = core::standardWorkloads();
  core::EngineOptions options;
  options.cosim = true;
  for (unsigned jobs : {1u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    core::CompareEngine engine(options); // fresh: nothing carried over
    flows::FlowTuning tuning;
    tuning.jobs = jobs;
    std::uint64_t goldenBefore = core::goldenModelRuns();
    std::uint64_t fsmdBefore = core::verifyFsmdRuns();
    auto rows = engine.compareMatrix(suite, tuning);
    std::uint64_t golden = core::goldenModelRuns() - goldenBefore;
    std::uint64_t fsmd = core::verifyFsmdRuns() - fsmdBefore;
    std::uint64_t syncCells = 0;
    for (const auto &workloadRows : rows)
      for (const auto &r : workloadRows) {
        if (!r.accepted)
          continue;
        EXPECT_TRUE(r.verified) << r.flowId << ": " << r.note;
        if (r.asyncNs == 0) {
          ++syncCells;
          EXPECT_TRUE(r.cosimOk) << r.flowId << ": " << r.cosimNote;
        }
      }
    RecordProperty("golden_runs_jobs" + std::to_string(jobs),
                   std::to_string(golden));
    RecordProperty("fsmd_runs_jobs" + std::to_string(jobs),
                   std::to_string(fsmd));
    EXPECT_EQ(suite.size(), 18u);
    EXPECT_EQ(golden, suite.size());
    EXPECT_GT(syncCells, 0u);
    EXPECT_EQ(fsmd, syncCells);
  }
}

TEST(Engine, StepBudgetRowsMatchForAnyJobs) {
  // A cell whose meter limits steps runs its own golden model, so which
  // rows trip during verification, and what they charged, never depends on
  // which cell ran first.  At this budget every accepted fir cell trips in
  // the interpreter and every gcd cell verifies and co-simulates.  The
  // expected text is what this budget produced before the cells of a
  // workload shared one golden run.
  static const char *const kExpected =
    R"r([{"flow":"cones","accepted":false,"verified":false,"cycles":0,"a)r"
    R"r(rea":0.0,"fmax":0.0,"note":"Cones rejects mutable global state ()r"
    R"r(no state: inputs map combinationally to outputs; used at 3:5, 4:)r"
    R"r(5)","cosimRan":false,"cosimOk":false,"cosimCycles":0,"engine":"")r"
    R"r(,"fallback":"","degradation":""},{"flow":"hardwarec","accepted":)r"
    R"r(true,"verified":false,"cycles":0,"area":1120.2,"fmax":444.4,"not)r"
    R"r(e":"interpreter: interpreter step budget exceeded (possible infi)r"
    R"r(nite loop): STEP_LIMIT at interp (steps=8192, cycles=0, allocByt)r"
    R"r(es=5600, wallMs=_)","cosimRan":false,"cosimOk":false,"cosimCycle)r"
    R"r(s":0,"engine":"","fallback":"","degradation":"","verdict":{"kind)r"
    R"r(":"STEP_LIMIT","stage":"interp","site":""}},{"flow":"transmogrif)r"
    R"r(ier","accepted":true,"verified":false,"cycles":0,"area":942.0,"f)r"
    R"r(max":142.9,"note":"interpreter: interpreter step budget exceeded)r"
    R"r( (possible infinite loop): STEP_LIMIT at interp (steps=8192, cyc)r"
    R"r(les=0, allocBytes=5600, wallMs=_)","cosimRan":false,"cosimOk":fa)r"
    R"r(lse,"cosimCycles":0,"engine":"","fallback":"","degradation":"",")r"
    R"r(verdict":{"kind":"STEP_LIMIT","stage":"interp","site":""}},{"flo)r"
    R"r(w":"handelc","accepted":true,"verified":false,"cycles":0,"area":)r"
    R"r(1288.0,"fmax":444.4,"note":"interpreter: interpreter step budget)r"
    R"r( exceeded (possible infinite loop): STEP_LIMIT at interp (steps=)r"
    R"r(8192, cycles=0, allocBytes=5600, wallMs=_)","cosimRan":false,"co)r"
    R"r(simOk":false,"cosimCycles":0,"engine":"","fallback":"","degradat)r"
    R"r(ion":"","verdict":{"kind":"STEP_LIMIT","stage":"interp","site":")r"
    R"r("}},{"flow":"ocapi","accepted":true,"verified":false,"cycles":0,)r"
    R"r("area":1288.0,"fmax":444.4,"note":"interpreter: interpreter step)r"
    R"r( budget exceeded (possible infinite loop): STEP_LIMIT at interp )r"
    R"r((steps=8192, cycles=0, allocBytes=5600, wallMs=_)","cosimRan":fa)r"
    R"r(lse,"cosimOk":false,"cosimCycles":0,"engine":"","fallback":"","d)r"
    R"r(egradation":"","verdict":{"kind":"STEP_LIMIT","stage":"interp",")r"
    R"r(site":""}},{"flow":"c2verilog","accepted":true,"verified":false,)r"
    R"r("cycles":0,"area":1225.8,"fmax":444.4,"note":"interpreter: inter)r"
    R"r(preter step budget exceeded (possible infinite loop): STEP_LIMIT)r"
    R"r( at interp (steps=8192, cycles=0, allocBytes=5600, wallMs=_)","c)r"
    R"r(osimRan":false,"cosimOk":false,"cosimCycles":0,"engine":"","fall)r"
    R"r(back":"","degradation":"","verdict":{"kind":"STEP_LIMIT","stage")r"
    R"r(:"interp","site":""}},{"flow":"cyber","accepted":true,"verified")r"
    R"r(:false,"cycles":0,"area":1120.2,"fmax":444.4,"note":"interpreter)r"
    R"r(: interpreter step budget exceeded (possible infinite loop): STE)r"
    R"r(P_LIMIT at interp (steps=8192, cycles=0, allocBytes=5600, wallMs)r"
    R"r(=_)","cosimRan":false,"cosimOk":false,"cosimCycles":0,"engine":")r"
    R"r(","fallback":"","degradation":"","verdict":{"kind":"STEP_LIMIT",)r"
    R"r("stage":"interp","site":""}},{"flow":"systemc","accepted":true,")r"
    R"r(verified":false,"cycles":0,"area":1120.2,"fmax":444.4,"note":"in)r"
    R"r(terpreter: interpreter step budget exceeded (possible infinite l)r"
    R"r(oop): STEP_LIMIT at interp (steps=8192, cycles=0, allocBytes=560)r"
    R"r(0, wallMs=_)","cosimRan":false,"cosimOk":false,"cosimCycles":0,")r"
    R"r(engine":"","fallback":"","degradation":"","verdict":{"kind":"STE)r"
    R"r(P_LIMIT","stage":"interp","site":""}},{"flow":"specc","accepted")r"
    R"r(:true,"verified":false,"cycles":0,"area":1120.2,"fmax":444.4,"no)r"
    R"r(te":"interpreter: interpreter step budget exceeded (possible inf)r"
    R"r(inite loop): STEP_LIMIT at interp (steps=8192, cycles=0, allocBy)r"
    R"r(tes=5600, wallMs=_)","cosimRan":false,"cosimOk":false,"cosimCycl)r"
    R"r(es":0,"engine":"","fallback":"","degradation":"","verdict":{"kin)r"
    R"r(d":"STEP_LIMIT","stage":"interp","site":""}},{"flow":"bachc","ac)r"
    R"r(cepted":true,"verified":false,"cycles":0,"area":1120.2,"fmax":44)r"
    R"r(4.4,"note":"interpreter: interpreter step budget exceeded (possi)r"
    R"r(ble infinite loop): STEP_LIMIT at interp (steps=8192, cycles=0, )r"
    R"r(allocBytes=5600, wallMs=_)","cosimRan":false,"cosimOk":false,"co)r"
    R"r(simCycles":0,"engine":"","fallback":"","degradation":"","verdict)r"
    R"r(":{"kind":"STEP_LIMIT","stage":"interp","site":""}},{"flow":"cas)r"
    R"r(h","accepted":true,"verified":false,"cycles":0,"area":1271.6,"fm)r"
    R"r(ax":0.0,"note":"interpreter: interpreter step budget exceeded (p)r"
    R"r(ossible infinite loop): STEP_LIMIT at interp (steps=8192, cycles)r"
    R"r(=0, allocBytes=5600, wallMs=_)","cosimRan":false,"cosimOk":false)r"
    R"r(,"cosimCycles":0,"engine":"","fallback":"","degradation":"","ver)r"
    R"r(dict":{"kind":"STEP_LIMIT","stage":"interp","site":""}}])r" "\n"
    R"r([{"flow":"cones","accepted":false,"verified":false,"cycles":0,"a)r"
    R"r(rea":0.0,"fmax":0.0,"note":"Cones rejects data-dependent loops ()r"
    R"r(loops must have static bounds to flatten; used at 3:3)","cosimRa)r"
    R"r(n":false,"cosimOk":false,"cosimCycles":0,"engine":"","fallback":)r"
    R"r("","degradation":""},{"flow":"hardwarec","accepted":true,"verifi)r"
    R"r(ed":true,"cycles":57,"area":231.4,"fmax":1176.5,"note":"","cosim)r"
    R"r(Ran":true,"cosimOk":true,"cosimCycles":57,"engine":"compiled","f)r"
    R"r(allback":"","degradation":""},{"flow":"transmogrifier","accepted)r"
    R"r(":false,"verified":false,"cycles":0,"area":0.0,"fmax":0.0,"note")r"
    R"r(:"Transmogrifier C rejects division/modulo (no divider support; )r"
    R"r(used at 3:37)","cosimRan":false,"cosimOk":false,"cosimCycles":0,)r"
    R"r("engine":"","fallback":"","degradation":""},{"flow":"handelc","a)r"
    R"r(ccepted":false,"verified":false,"cycles":0,"area":0.0,"fmax":0.0)r"
    R"r(,"note":"Handel-C rejects division/modulo (Handel-C has no divis)r"
    R"r(ion/modulo operators; used at 3:37)","cosimRan":false,"cosimOk":)r"
    R"r(false,"cosimCycles":0,"engine":"","fallback":"","degradation":"")r"
    R"r(},{"flow":"ocapi","accepted":true,"verified":true,"cycles":62,"a)r"
    R"r(rea":233.8,"fmax":1176.5,"note":"","cosimRan":true,"cosimOk":tru)r"
    R"r(e,"cosimCycles":62,"engine":"compiled","fallback":"","degradatio)r"
    R"r(n":""},{"flow":"c2verilog","accepted":true,"verified":true,"cycl)r"
    R"r(es":57,"area":231.4,"fmax":1176.5,"note":"","cosimRan":true,"cos)r"
    R"r(imOk":true,"cosimCycles":57,"engine":"compiled","fallback":"","d)r"
    R"r(egradation":""},{"flow":"cyber","accepted":true,"verified":true,)r"
    R"r("cycles":57,"area":231.4,"fmax":1176.5,"note":"","cosimRan":true)r"
    R"r(,"cosimOk":true,"cosimCycles":57,"engine":"compiled","fallback":)r"
    R"r("","degradation":""},{"flow":"systemc","accepted":true,"verified)r"
    R"r(":true,"cycles":57,"area":231.4,"fmax":1176.5,"note":"","cosimRa)r"
    R"r(n":true,"cosimOk":true,"cosimCycles":57,"engine":"compiled","fal)r"
    R"r(lback":"","degradation":""},{"flow":"specc","accepted":true,"ver)r"
    R"r(ified":true,"cycles":57,"area":231.4,"fmax":1176.5,"note":"","co)r"
    R"r(simRan":true,"cosimOk":true,"cosimCycles":57,"engine":"compiled")r"
    R"r(,"fallback":"","degradation":""},{"flow":"bachc","accepted":true)r"
    R"r(,"verified":true,"cycles":57,"area":231.4,"fmax":1176.5,"note":")r"
    R"r(","cosimRan":true,"cosimOk":true,"cosimCycles":57,"engine":"comp)r"
    R"r(iled","fallback":"","degradation":""},{"flow":"cash","accepted":)r"
    R"r(true,"verified":true,"cycles":0,"area":126.2,"fmax":0.0,"asyncNs)r"
    R"r(":30.9,"note":"","cosimRan":false,"cosimOk":false,"cosimCycles":)r"
    R"r(0,"engine":"","fallback":"","degradation":""}])r" "\n";

  std::vector<core::Workload> suite = {core::findWorkload("fir"),
                                       core::findWorkload("gcd")};
  core::EngineOptions options;
  options.cosim = true;
  flows::FlowTuning tuning;
  tuning.budget.maxSteps = 6000;
  for (unsigned jobs : {1u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    core::CompareEngine engine(options);
    tuning.jobs = jobs;
    std::string text;
    for (const auto &rows : engine.compareMatrix(suite, tuning))
      text += serve::serializeRows(rows, true) + "\n";
    // A verdict's consumed wall time is the one host-dependent field.
    text = std::regex_replace(text, std::regex("wallMs=[0-9]+"), "wallMs=_");
    EXPECT_EQ(text, kExpected);
  }
}

TEST(Engine, StepLimitedCellsRunTheirOwnGoldenModel) {
  // Cones unrolls the 600-step loop, charging 600 + 40 steps before
  // verification; HardwareC charges none.  Each cell's golden run charges
  // 8192 more (the interpreter charges in batches of 4096), so at this
  // budget only the cones cell trips.  It runs after the HardwareC cell,
  // whose golden run completed: had it read that run instead of making its
  // own, it would have verified.
  core::Workload w;
  w.name = "unrolled";
  w.source = R"(
int main() {
  int s = 0;
  for (int i = 0; i < 600; i = i + 1) { s = s + i * 3; }
  int t = 0;
  for (int j = 0; j < 40; j = j + 1) { t = t ^ (s + j); }
  return s + t;
}
)";
  w.top = "main";
  const std::vector<flows::FlowSpec> specs = {*flows::findFlow("hardwarec"),
                                              *flows::findFlow("cones")};
  flows::FlowTuning tuning;
  tuning.budget.maxSteps = 8192 + 320;
  for (unsigned jobs : {1u, 4u}) {
    SCOPED_TRACE("jobs=" + std::to_string(jobs));
    core::CompareEngine engine;
    tuning.jobs = jobs;
    auto rows = engine.compareFlows(w, specs, tuning);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_TRUE(rows[0].verified) << rows[0].note;
    EXPECT_TRUE(rows[1].accepted) << rows[1].note;
    EXPECT_FALSE(rows[1].verified);
    EXPECT_EQ(rows[1].verdict.kind, guard::Kind::StepLimit) << rows[1].note;
    EXPECT_EQ(rows[1].verdict.stage, "interp");
  }
}

TEST(FrontendCache, CompilesOncePerSourceTopPair) {
  core::FrontendCache cache;
  const auto &w = core::findWorkload("gcd");
  auto a = cache.get(w.source, w.top);
  auto b = cache.get(w.source, w.top);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  // A different top is a different key even with identical source.
  auto c = cache.get(w.source, "gcd");
  EXPECT_NE(a.get(), c.get());
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(FrontendCache, FrontendErrorsAreCachedNotThrown) {
  core::FrontendCache cache;
  auto entry = cache.get("int main() { return undeclared_name; }", "main");
  ASSERT_FALSE(entry->ok());
  EXPECT_FALSE(entry->error.empty());
  EXPECT_EQ(entry->cloneAst(), nullptr);
}

TEST(FrontendCache, CloneIsDistinctAndMutationDoesNotLeak) {
  core::FrontendCache cache;
  auto entry = cache.get("int g;\n"
                         "int helper(int x) { return x + g; }\n"
                         "int main(int a) { g = 7; return helper(a); }\n",
                         "main");
  ASSERT_TRUE(entry->ok());

  auto clone1 = entry->cloneAst();
  auto clone2 = entry->cloneAst();
  ASSERT_NE(clone1, nullptr);
  ASSERT_NE(clone1.get(), clone2.get());

  // No AST node of clone1 may point into the cached program or clone2:
  // collect every VarDecl each program owns, then check every VarRef and
  // call target stays within its own program.
  auto ownedDecls = [](const ast::Program &p) {
    std::set<const ast::VarDecl *> decls;
    for (const auto &g : p.globals)
      decls.insert(g.get());
    for (const auto &fn : p.functions)
      for (const auto &param : fn->params)
        decls.insert(param.get());
    ast::walk(const_cast<ast::Program &>(p), [&](ast::Stmt &s) {
      if (s.kind == ast::Stmt::Kind::Decl)
        decls.insert(static_cast<ast::DeclStmt &>(s).decl.get());
    }, nullptr);
    return decls;
  };
  auto own1 = ownedDecls(*clone1);
  ast::walk(*clone1, nullptr, [&](ast::Expr &e) {
    if (e.kind == ast::Expr::Kind::VarRef) {
      auto &ref = static_cast<ast::VarRefExpr &>(e);
      EXPECT_TRUE(own1.count(ref.decl)) << "ref to '" << ref.name
                                        << "' escapes the clone";
    } else if (e.kind == ast::Expr::Kind::Call) {
      auto &call = static_cast<ast::CallExpr &>(e);
      EXPECT_EQ(call.decl, clone1->findFunction(call.callee));
    }
  });

  // Inline one clone (the heaviest AST mutation a flow performs) and make
  // sure the sibling clone and the cached original still synthesize and
  // verify bit-for-bit.
  DiagnosticEngine diags;
  opt::inlineFunctions(*clone1, entry->types, diags);
  ASSERT_FALSE(diags.hasErrors()) << diags.str();
  EXPECT_EQ(clone2->functions.size(), 2u);
  EXPECT_NE(entry->program->findFunction("helper"), nullptr);

  core::Workload w;
  w.name = "cloned";
  w.source = entry->source;
  w.top = "main";
  w.args = {5};
  w.checkGlobals = {"g"};
  flows::FlowTuning tuning;
  auto result =
      flows::runFlowChecked(*flows::findFlow("bachc"), *clone2,
                            entry->types, "main", tuning);
  ASSERT_TRUE(result.ok) << result.error;
  auto v = core::verifyAgainstGoldenModel(w, result, *entry->program);
  EXPECT_TRUE(v.ok) << v.detail;
}

TEST(FrontendCache, EngineCompilesEachWorkloadOnce) {
  core::CompareEngine engine;
  std::vector<core::Workload> suite = {core::findWorkload("gcd"),
                                       core::findWorkload("crc8small")};
  engine.compareMatrix(suite);
  EXPECT_EQ(engine.cache().misses(), 2u);
  EXPECT_EQ(engine.cache().hits(), 0u);
  // Re-running the comparison hits the cache instead of recompiling.
  engine.compareFlows(suite[0]);
  EXPECT_EQ(engine.cache().misses(), 2u);
  EXPECT_EQ(engine.cache().hits(), 1u);
}

TEST(ThreadPool, RunsEveryTaskAcrossWaitCycles) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.threadCount(), 4u);
  std::atomic<int> counter{0};
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 100; ++i)
      pool.submit([&counter] { ++counter; });
    pool.wait();
    EXPECT_EQ(counter.load(), (round + 1) * 100);
  }
}

TEST(ThreadPool, TaskExceptionsDoNotKillWorkers) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 20; ++i)
    pool.submit([&counter, i] {
      if (i % 2 == 0)
        throw std::runtime_error("boom");
      ++counter;
    });
  pool.wait();
  EXPECT_EQ(counter.load(), 10);
}

TEST(FrontendCache, LruByteCapEvictsAndReadmits) {
  core::FrontendCache cache;
  // Three distinct tiny programs; cap the cache so only ~two fit.
  auto sourceFor = [](int n) {
    return "int main() { return " + std::to_string(n) + "; }";
  };
  std::uint64_t oneCost;
  {
    core::FrontendCache probe;
    auto e = probe.get(sourceFor(0), "main");
    ASSERT_TRUE(e->ok());
    oneCost = core::FrontendCache::entryCost(*e);
  }
  cache.setCapacityBytes(oneCost * 2 + oneCost / 2);
  auto e0 = cache.get(sourceFor(0), "main");
  auto e1 = cache.get(sourceFor(1), "main");
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_TRUE(cache.contains(sourceFor(0), "main"));
  // Touch 0 so 1 is the LRU victim when 2 arrives.
  cache.get(sourceFor(0), "main");
  auto e2 = cache.get(sourceFor(2), "main");
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_LE(cache.sizeBytes(), cache.capacityBytes());
  EXPECT_TRUE(cache.contains(sourceFor(0), "main"));
  EXPECT_FALSE(cache.contains(sourceFor(1), "main"));
  EXPECT_TRUE(cache.contains(sourceFor(2), "main"));
  // The evicted entry stays usable for holders of the shared_ptr...
  EXPECT_TRUE(e1->ok());
  // ...and re-requesting it is a clean miss (recompile + re-admission).
  std::uint64_t missesBefore = cache.misses();
  auto e1again = cache.get(sourceFor(1), "main");
  EXPECT_EQ(cache.misses(), missesBefore + 1);
  EXPECT_TRUE(e1again->ok());
  EXPECT_NE(e1again.get(), e1.get());
  EXPECT_TRUE(cache.contains(sourceFor(1), "main"));
  EXPECT_EQ(cache.evictions(), 2u); // something else was displaced
  EXPECT_LE(cache.sizeBytes(), cache.capacityBytes());
}

TEST(FrontendCache, HitCountersAndShrinkBelowResident) {
  core::FrontendCache cache;
  const std::string src = "int main() { return 7; }";
  cache.get(src, "main");
  cache.get(src, "main");
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_GT(cache.sizeBytes(), 0u);
  // Shrinking the cap below the resident set evicts immediately.
  cache.setCapacityBytes(1);
  EXPECT_EQ(cache.sizeBytes(), 0u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.contains(src, "main"));
}

TEST(FrontendCache, UnboundedByDefaultNeverEvicts) {
  core::FrontendCache cache;
  for (int i = 0; i < 16; ++i)
    cache.get("int main() { return " + std::to_string(i) + "; }", "main");
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.capacityBytes(), 0u);
}

TEST(CloneProgram, PreservesRecursionFlagAndParamMarkers) {
  TypeContext types;
  DiagnosticEngine diags;
  auto program = frontend("int fac(int n) { if (n < 2) { return 1; } "
                          "return n * fac(n - 1); }\n"
                          "int main(int n) { return fac(n); }\n",
                          types, diags);
  ASSERT_NE(program, nullptr) << diags.str();
  auto clone = opt::cloneProgram(*program);
  const ast::FuncDecl *fac = clone->findFunction("fac");
  ASSERT_NE(fac, nullptr);
  EXPECT_TRUE(fac->isRecursive);
  ASSERT_EQ(fac->params.size(), 1u);
  EXPECT_TRUE(fac->params[0]->isParam);
  // Ids must stay program-unique in the clone (the inliner mints fresh ids
  // starting above the maximum).
  std::set<unsigned> ids;
  for (const auto &fn : clone->functions)
    for (const auto &p : fn->params)
      EXPECT_TRUE(ids.insert(p->id).second);
  EXPECT_GE(opt::maxVarDeclId(*clone), 2u);
}

} // namespace
} // namespace c2h
