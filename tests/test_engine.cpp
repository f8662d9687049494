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
#include "opt/astclone.h"
#include "support/guard.h"
#include "support/threadpool.h"

#include <gtest/gtest.h>

#include <atomic>
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
