// Value-range analysis tests: each diagnostic code fires on a seeded
// known-bad program at its exact site and stays silent on the guarded /
// masked idioms; the workload registry is finding-free; every claim the
// analysis makes survives concrete replay; range-powered width inference
// strictly improves on the magnitude-only bound; and the div/shift edge
// semantics the diagnostics assume agree across every execution engine.
#include "analysis/range.h"
#include "core/c2h.h"
#include "frontend/sema.h"
#include "interp/interp.h"
#include "ir/exec.h"
#include "ir/liveness.h"
#include "ir/lower.h"
#include "opt/inline.h"
#include "opt/irpasses.h"
#include "opt/widthinfer.h"
#include "rtl/sim.h"
#include "vsim/cosim.h"

#include "testutil.h"

#include <gtest/gtest.h>

namespace c2h {
namespace {

struct World {
  TypeContext types;
  DiagnosticEngine diags;
  std::unique_ptr<ast::Program> ast;
  std::unique_ptr<ir::Module> module;
};

// Lower without optimizing: the range diagnostics run on raw IR (constant
// folding would legalize, say, a literal division by zero before the
// analysis could report it), exactly as the flow pre-flight gate does.
std::unique_ptr<World> rawLowered(const std::string &src,
                                  const std::string &top = "") {
  auto w = std::make_unique<World>();
  w->ast = frontend(src, w->types, w->diags);
  EXPECT_NE(w->ast, nullptr) << w->diags.str();
  if (!w->ast)
    return w;
  if (!top.empty()) {
    opt::inlineFunctions(*w->ast, w->types, w->diags);
    opt::removeUnusedFunctions(*w->ast, top);
  }
  w->module = ir::lowerToIR(*w->ast, w->diags);
  EXPECT_NE(w->module, nullptr) << w->diags.str();
  return w;
}

analysis::Report reportFor(const std::string &src) {
  auto w = rawLowered(src);
  if (!w->module)
    return {};
  return analysis::checkRanges(*w->module);
}

bool hasFinding(const analysis::Report &r, const std::string &code,
                unsigned line = 0) {
  for (const auto &d : r.diagnostics())
    if (d.code == code && (line == 0 || d.primaryLoc().line == line))
      return true;
  return false;
}

// ---------------------------------------------------------------------------
// Diagnostics: seeded bad programs fire at exact sites; idioms stay silent.

TEST(RangeDiag, MaskedIndexIsSilent) {
  auto r = reportFor("uint<8> x[16];\n"
                     "int f(int i) {\n"
                     "  return (int)x[i & 15];\n"
                     "}\n");
  EXPECT_TRUE(r.empty()) << r.renderText();
}

TEST(RangeDiag, ProvablyOutOfBoundsIsAnError) {
  auto r = reportFor("uint<8> x[16];\n"
                     "int f(int i) {\n"
                     "  int j = 16 + (i & 3);\n"
                     "  return (int)x[j];\n" // line 4: j in [16, 19]
                     "}\n");
  EXPECT_TRUE(hasFinding(r, "C2H-BOUND-001", 4)) << r.renderText();
  EXPECT_GE(r.errorCount(), 1u);
}

TEST(RangeDiag, PossiblyOutOfBoundsIsAWarning) {
  auto r = reportFor("uint<8> x[16];\n"
                     "int f(int i) {\n"
                     "  return (int)x[i & 31];\n" // line 3: [0, 31] vs 16
                     "}\n");
  EXPECT_TRUE(hasFinding(r, "C2H-BOUND-002", 3)) << r.renderText();
  EXPECT_EQ(r.errorCount(), 0u) << r.renderText();
}

TEST(RangeDiag, GuardedFirPatternIsSilent) {
  // The FIR idiom: the guard bounds a *recomputed* n-k in the guarded
  // block.  Needs the relational expression facts, not just intervals.
  auto r = reportFor("uint<8> x[32];\n"
                     "int f() {\n"
                     "  int s = 0;\n"
                     "  for (int n = 0; n < 40; n = n + 1) {\n"
                     "    for (int k = 0; k < 8; k = k + 1) {\n"
                     "      if (n - k >= 0) {\n"
                     "        if (n - k < 32) {\n"
                     "          s = s + (int)x[n - k];\n"
                     "        }\n"
                     "      }\n"
                     "    }\n"
                     "  }\n"
                     "  return s;\n"
                     "}\n");
  EXPECT_FALSE(hasFinding(r, "C2H-BOUND-001")) << r.renderText();
  EXPECT_FALSE(hasFinding(r, "C2H-BOUND-002")) << r.renderText();
}

TEST(RangeDiag, DerivedDivisionByZeroIsAnError) {
  auto r = reportFor("int f(int a) {\n"
                     "  int z = 4;\n"
                     "  z = z - 4;\n"
                     "  return a / z;\n" // line 4: z provably 0
                     "}\n");
  EXPECT_TRUE(hasFinding(r, "C2H-DIV-001", 4)) << r.renderText();
  EXPECT_GE(r.errorCount(), 1u);
}

TEST(RangeDiag, OversizedShiftIsAWarning) {
  auto r = reportFor("int f(int a) {\n"
                     "  int s = 32;\n"
                     "  return a << s;\n" // line 3: 32 >= width 32
                     "}\n");
  EXPECT_TRUE(hasFinding(r, "C2H-SHIFT-001", 3)) << r.renderText();
  EXPECT_EQ(r.errorCount(), 0u) << r.renderText();
}

TEST(RangeDiag, DerivedDeadBranchIsReported) {
  auto r = reportFor("int f(int a) {\n"
                     "  int m = a & 15;\n"
                     "  if (m > 20) {\n" // line 3: provably false
                     "    return 1;\n"
                     "  }\n"
                     "  return 0;\n"
                     "}\n");
  EXPECT_TRUE(hasFinding(r, "C2H-DEAD-001")) << r.renderText();
  EXPECT_EQ(r.errorCount(), 0u) << r.renderText();
}

TEST(RangeDiag, GuaranteedTruncationIsAWarning) {
  auto r = reportFor("int f(int a) {\n"
                     "  int m = (a & 255) + 256;\n"
                     "  uint<4> t = (uint<4>)m;\n" // line 3: [256,511] to 4b
                     "  return (int)t;\n"
                     "}\n");
  EXPECT_TRUE(hasFinding(r, "C2H-OVFL-001", 3)) << r.renderText();
}

TEST(RangeDiag, WhileOneIsNotFlagged) {
  // `while (1)` is deliberate control flow, not a decided-branch finding.
  auto r = reportFor("int f() {\n"
                     "  int i = 0;\n"
                     "  while (1) {\n" // line 3: must NOT be flagged
                     "    i = i + 1;\n"
                     "    if (i > 3) {\n"
                     "      return i;\n"
                     "    }\n"
                     "  }\n"
                     "  return 0;\n"
                     "}\n");
  EXPECT_FALSE(hasFinding(r, "C2H-DEAD-001", 3)) << r.renderText();
  EXPECT_EQ(r.errorCount(), 0u) << r.renderText();
}

// ---------------------------------------------------------------------------
// Registry: no findings on known-good workloads, and no contradicted claim.

TEST(RangeRegistry, WorkloadsAreFindingFree) {
  for (const auto &wl : core::standardWorkloads()) {
    auto w = rawLowered(wl.source, wl.top);
    ASSERT_NE(w->module, nullptr) << wl.name;
    auto r = analysis::checkRanges(*w->module);
    EXPECT_EQ(r.errorCount(), 0u) << wl.name << ":\n" << r.renderText();
    EXPECT_EQ(r.warningCount(), 0u) << wl.name << ":\n" << r.renderText();
  }
}

TEST(RangeRegistry, ClaimsSurviveConcreteReplay) {
  unsigned replayed = 0;
  for (const auto &wl : core::standardWorkloads()) {
    auto w = rawLowered(wl.source, wl.top);
    ASSERT_NE(w->module, nullptr) << wl.name;
    auto ranges = analysis::analyzeRanges(*w->module);
    const ir::Function *top = w->module->findFunction(wl.top);
    ASSERT_NE(top, nullptr) << wl.name;
    auto widths = analysis::inferWidthsWithRanges(*w->module, *top, ranges);
    std::vector<BitVector> args;
    for (std::size_t i = 0;
         i < top->params().size() && i < wl.args.size(); ++i)
      args.push_back(BitVector::fromInt(
          std::max(1u, top->params()[i].width), wl.args[i]));
    auto result = testutil::checkStaticClaims(*w->module, *top, ranges,
                                              &widths, args,
                                              /*maxSteps=*/4000000);
    for (const auto &v : result.violations)
      ADD_FAILURE() << wl.name << ": contradicted claim: " << v;
    replayed += result.executed;
  }
  // Most of the registry is sequential; the replayer must actually cover
  // a healthy slice of it, not silently skip everything.
  EXPECT_GE(replayed, 10u);
}

// ---------------------------------------------------------------------------
// Solver work: block transfers and interval copies grow linearly with the
// number of loops.

// N arrays and N sequential loops that all feed one accumulator.
std::string copiesProgram(unsigned n) {
  std::string src;
  for (unsigned i = 1; i <= n; ++i)
    src += "int a" + std::to_string(i) + "[16];\n";
  src += "int main(int x) {\n  int s = 0;\n";
  for (unsigned i = 1; i <= n; ++i) {
    std::string v = "i" + std::to_string(i), k = std::to_string(i);
    src += "  for (int " + v + " = 0; " + v + " < 16; " + v + " = " + v +
           " + 1) { if (x > " + k + ") s = s + a" + k + "[" + v +
           "]; else s = s - " + v + "; }\n";
  }
  src += "  return s;\n}\n";
  return src;
}

TEST(RangeScaling, BlockTransfersGrowLinearly) {
  // A deterministic work count, so the gate cannot flake with host load.
  // Iterating each loop to its fixpoint before the next one costs about
  // 230 transfers per loop; sweeping every block until nothing changes
  // cost about 2,950 per loop already at N = 25, and grows with N.
  for (unsigned n : {25u, 50u, 100u, 200u}) {
    auto w = rawLowered(copiesProgram(n), "main");
    ASSERT_NE(w->module, nullptr) << n;
    const std::uint64_t before = analysis::rangeBlockTransfers();
    auto ranges = analysis::analyzeRanges(*w->module);
    const std::uint64_t transfers = analysis::rangeBlockTransfers() - before;
    RecordProperty("transfers_" + std::to_string(n),
                   std::to_string(transfers));
    EXPECT_LE(transfers, 400u * n) << "N = " << n;
    // Each loop's header, arms and latch are transferred at least once.
    EXPECT_GE(transfers, 4u * n) << "N = " << n;
    EXPECT_NE(ranges.of(*w->module->findFunction("main")), nullptr) << n;
  }
}

TEST(RangeScaling, IntervalCopiesGrowLinearly) {
  // Sparse states: a transfer copies only the live-in intervals of its
  // block and its successors, and a join walks only those, so the copies
  // per solve grow with N like the transfers do: about 2,190 per loop, 10
  // per transfer.  Dense states copied and joined every vreg of the
  // function, about 8 per loop, on each transfer: quadratic in N.
  for (unsigned n : {25u, 50u, 100u, 200u}) {
    auto w = rawLowered(copiesProgram(n), "main");
    ASSERT_NE(w->module, nullptr) << n;
    const std::uint64_t before = analysis::rangeIntervalCopies();
    analysis::analyzeRanges(*w->module);
    const std::uint64_t copies = analysis::rangeIntervalCopies() - before;
    RecordProperty("copies_" + std::to_string(n), std::to_string(copies));
    EXPECT_LE(copies, 3000u * n) << "N = " << n;
    EXPECT_GT(copies, 0u) << "N = " << n;
  }
}

// ---------------------------------------------------------------------------
// Sparse states: each block-entry state holds exactly its live-in vregs.

TEST(RangeState, EntryHoldsLiveIn) {
  unsigned blocks = 0;
  for (const auto &wl : core::standardWorkloads()) {
    auto w = rawLowered(wl.source, wl.top);
    ASSERT_NE(w->module, nullptr) << wl.name;
    // The raw module the pre-flight gate analyzes, then the optimized one
    // the flows prune.
    for (int optimized = 0; optimized < 2; ++optimized) {
      if (optimized)
        opt::optimizeModule(*w->module);
      auto ranges = analysis::analyzeRanges(*w->module);
      for (const auto &fn : w->module->functions()) {
        const analysis::FunctionRanges *fr = ranges.of(*fn);
        ASSERT_NE(fr, nullptr) << wl.name << " " << fn->name();
        ir::Liveness live(*fn);
        for (const auto &[block, state] : fr->entry) {
          const std::vector<unsigned> &in = live.liveIn(block);
          std::vector<unsigned> held;
          for (const auto &r : state.regs)
            held.push_back(r.vreg);
          EXPECT_EQ(held, std::vector<unsigned>(in.begin(), in.end()))
              << wl.name << " " << fn->name() << " " << block->name()
              << (optimized ? " (optimized)" : " (raw)");
          ++blocks;
        }
      }
    }
  }
  EXPECT_GE(blocks, 100u);
}

// ---------------------------------------------------------------------------
// Module fixpoint: summaries, function re-solves and the round cap.

// tests/fixtures/summary_chain.uc with `n` arrays s0..s<n-1>: array k is
// written only once array k - 1 holds a value above 100, so each link takes
// one more round of the memory-summary fixpoint.
std::string summaryChainProgram(unsigned n) {
  auto name = [](unsigned k) { return "s" + std::to_string(k); };
  std::string src;
  for (unsigned k = 0; k < n; ++k)
    src += "int " + name(k) + "[2];\n";
  src += "int main(int n) {\n"
         "  for (int r = 0; r < n; r = r + 1) {\n"
         "    for (int i = 0; i < 2; i = i + 1) {\n"
         "      s0[i] = s0[i] + 1;\n";
  for (unsigned k = 1; k < n; ++k)
    src += "      if (" + name(k - 1) + "[i] > 100) " + name(k) + "[i] = " +
           name(k - 1) + "[i];\n";
  src += "    }\n  }\n  return " + name(n - 1) + "[0] + " + name(n - 1) +
         "[1];\n}\n";
  return src;
}

TEST(RangeFixpoint, SummaryChainPastTheRoundCapStaysSound) {
  // Four links settle inside the module fixpoint's round cap; from five on
  // the last summaries still grow at the cap, and they must go to top
  // rather than leave the last arrays' loads claimed at their initial zero.
  for (unsigned n : {4u, 5u, 8u, 12u}) {
    auto w = rawLowered(summaryChainProgram(n), "main");
    ASSERT_NE(w->module, nullptr) << n;
    auto ranges = analysis::analyzeRanges(*w->module);
    const ir::Function *top = w->module->findFunction("main");
    ASSERT_NE(top, nullptr);
    auto widths = analysis::inferWidthsWithRanges(*w->module, *top, ranges);
    auto result = testutil::checkStaticClaims(
        *w->module, *top, ranges, &widths,
        {BitVector::fromInt(top->params()[0].width, 300)}, 1000000);
    EXPECT_TRUE(result.executed) << n << " arrays";
    for (const auto &v : result.violations)
      ADD_FAILURE() << n << " arrays: contradicted claim: " << v;
    EXPECT_FALSE(hasFinding(analysis::checkRanges(*w->module, ranges),
                            "C2H-DEAD-001"))
        << n << " arrays";
  }
}

TEST(RangeFixpoint, FunctionsReSolveOnlyWhenASummaryTheyReadGrew) {
  // gcd inlines to one function that reads no summary: its return grows in
  // round one, but nothing calls main, so it is solved once.  prodcons's
  // processes read each other's channels and memories; solving every
  // function in every round took 12 solves.
  auto solves = [](const char *name) {
    const auto &wl = core::findWorkload(name);
    auto w = rawLowered(wl.source, wl.top);
    EXPECT_NE(w->module, nullptr) << name;
    if (!w->module)
      return std::uint64_t(0);
    const std::uint64_t before = analysis::rangeFunctionSolves();
    analysis::analyzeRanges(*w->module);
    const std::uint64_t count = analysis::rangeFunctionSolves() - before;
    RecordProperty(std::string("function_solves_") + name,
                   std::to_string(count));
    return count;
  };
  EXPECT_EQ(solves("gcd"), 1u);
  EXPECT_LE(solves("prodcons"), 6u);
}

// ---------------------------------------------------------------------------
// Width inference: interval facts strictly beat the magnitude-only bound.

TEST(RangeWidths, FirStrictlyImproves) {
  const auto &wl = core::findWorkload("fir");
  auto w = rawLowered(wl.source, wl.top);
  ASSERT_NE(w->module, nullptr);
  const ir::Function *top = w->module->findFunction(wl.top);
  ASSERT_NE(top, nullptr);
  auto plain = opt::inferWidths(*w->module, *top);
  auto ranges = analysis::analyzeRanges(*w->module);
  auto ranged = analysis::inferWidthsWithRanges(*w->module, *top, ranges);
  EXPECT_EQ(plain.declaredBits, ranged.declaredBits);
  EXPECT_LT(ranged.effectiveBits, plain.effectiveBits);
}

// ---------------------------------------------------------------------------
// Dead-branch pruning: behavior-preserving, and the branch really goes.

TEST(RangePrune, FoldsDecidedBranchAndPreservesBehavior) {
  const std::string src = "int f(int a) {\n"
                          "  int m = a & 15;\n"
                          "  int r = 0;\n"
                          "  if (m > 20) {\n"
                          "    r = 100;\n"
                          "  }\n"
                          "  return r + m;\n"
                          "}\n";
  auto w = rawLowered(src);
  ASSERT_NE(w->module, nullptr);
  auto countCondBrs = [&]() {
    unsigned n = 0;
    for (const auto &fn : w->module->functions())
      for (const auto &block : fn->blocks())
        for (const auto &instr : block->instrs())
          n += instr->op == ir::Opcode::CondBr;
    return n;
  };
  std::vector<std::vector<BitVector>> inputs;
  for (std::int64_t a : {0, 7, 15, -1, 123456})
    inputs.push_back({BitVector::fromInt(32, a)});
  std::vector<std::string> before;
  {
    ir::IRExecutor exec(*w->module);
    for (const auto &args : inputs) {
      auto res = exec.call("f", args);
      ASSERT_TRUE(res.ok) << res.error;
      before.push_back(res.returnValue.toStringHex());
    }
  }
  unsigned condBrsBefore = countCondBrs();
  ASSERT_GE(condBrsBefore, 1u);
  EXPECT_TRUE(analysis::pruneDeadBranches(*w->module));
  EXPECT_LT(countCondBrs(), condBrsBefore);
  ir::IRExecutor exec(*w->module);
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    auto res = exec.call("f", inputs[i]);
    ASSERT_TRUE(res.ok) << res.error;
    EXPECT_EQ(res.returnValue.toStringHex(), before[i]);
  }
}

// ---------------------------------------------------------------------------
// Satellite: the div/shift edge semantics the diagnostics document are the
// semantics every engine implements — BitVector unit level first, then a
// program exercising every edge through interpreter, IR executor, RTL
// simulation, and both Verilog simulation engines.

TEST(EngineSemantics, DivisionAndShiftEdgeCasesAtUnitLevel) {
  BitVector x = BitVector::fromInt(32, 1234);
  BitVector nx = BitVector::fromInt(32, -1234);
  BitVector z(32);
  // x / 0 (unsigned) = all ones; x % 0 = x.
  EXPECT_TRUE(x.udiv(z).eq(BitVector::allOnes(32)));
  EXPECT_TRUE(x.urem(z).eq(x));
  // Signed: quotient is +/- all-ones reinterpreted (so -1 for x >= 0,
  // +1 for x < 0); remainder follows the dividend, so x % 0 = x.
  EXPECT_EQ(x.sdiv(z).toInt64(), -1);
  EXPECT_EQ(nx.sdiv(z).toInt64(), 1);
  EXPECT_TRUE(x.srem(z).eq(x));
  EXPECT_TRUE(nx.srem(z).eq(nx));
  // Shifts by >= width clear (shl/lshr) or fill with the sign (ashr).
  EXPECT_TRUE(x.shl(32).isZero());
  EXPECT_TRUE(x.lshr(99).isZero());
  EXPECT_TRUE(x.ashr(32).isZero());
  EXPECT_TRUE(nx.ashr(32).eq(BitVector::allOnes(32)));
}

TEST(EngineSemantics, DivisionAndShiftEdgeCasesAgreeAcrossEngines) {
  const std::string src =
      "int main(int a, int b) {\n"
      "  uint<16> ua = (uint<16>)a;\n"
      "  uint<16> ub = (uint<16>)b;\n"
      "  int q = a / b;\n"
      "  int r = a % b;\n"
      "  int uq = (int)(ua / ub);\n"
      "  int ur = (int)(ua % ub);\n"
      "  int sl = a << b;\n"
      "  int srl = (int)(ua >> ub);\n"
      "  int sra = a >> b;\n"
      "  return q + r * 3 + uq * 5 + ur * 7 + sl * 11 + srl * 13 +\n"
      "         sra * 17;\n"
      "}\n";
  TypeContext types;
  DiagnosticEngine diags;
  auto program = frontend(src, types, diags);
  ASSERT_NE(program, nullptr) << diags.str();
  auto module = ir::lowerToIR(*program, diags);
  ASSERT_NE(module, nullptr) << diags.str();
  opt::optimizeModule(*module);

  sched::TechLibrary lib;
  sched::SchedOptions opts;
  rtl::Design design = rtl::buildDesign(*module, "main", lib, opts);
  vsim::Cosimulation cosim(design);
  ASSERT_TRUE(cosim.valid()) << cosim.error();

  // (a, b) pairs hitting: signed/unsigned division and remainder by zero,
  // shifts by exactly the width, far past it, and negative-ish patterns.
  const std::pair<std::int64_t, std::int64_t> cases[] = {
      {1234, 0}, {-1234, 0}, {0, 0}, {7, 32}, {-7, 40}, {65535, 16},
  };
  for (auto [a, b] : cases) {
    std::vector<BitVector> args{BitVector::fromInt(32, a),
                                BitVector::fromInt(32, b)};
    Interpreter interp(*program);
    auto golden = interp.call("main", args);
    ASSERT_TRUE(golden.ok) << golden.error;
    std::string want = golden.returnValue.toStringHex();

    ir::IRExecutor exec(*module);
    auto irRes = exec.call("main", args);
    ASSERT_TRUE(irRes.ok) << irRes.error;
    EXPECT_EQ(want, irRes.returnValue.toStringHex())
        << "IR divergence at a=" << a << " b=" << b;

    rtl::Simulator sim(design);
    auto rtlRes = sim.run(args);
    ASSERT_TRUE(rtlRes.ok) << rtlRes.error;
    EXPECT_EQ(want, rtlRes.returnValue.toStringHex())
        << "RTL divergence at a=" << a << " b=" << b;

    for (auto engine : {vsim::SimEngine::Event, vsim::SimEngine::Compiled}) {
      vsim::CosimOptions vopts;
      vopts.engine = engine;
      auto v = cosim.run(args, vopts);
      ASSERT_TRUE(v.ok) << v.error;
      EXPECT_EQ(want, v.returnValue.resize(32, false).toStringHex())
          << "vsim divergence at a=" << a << " b=" << b;
    }
  }
}

} // namespace
} // namespace c2h
