// vsim: the Verilog-subset simulator that closes the loop on emitVerilog.
//
// Covered here:
//  * lexer/parser units, including parse diagnostics with line/column,
//  * behavioral semantics (blocking vs non-blocking, event ordering,
//    memories, $display formatting, wait/repeat/#delay),
//  * the emitTestbench PASS path *and* the FAIL path (a deliberately wrong
//    expected value must produce a FAIL verdict — the self-check is live),
//  * the three-model differential harness: interpreter == FSMD Simulator
//    == vsim on return values and checked globals, FSMD == vsim on exact
//    cycle counts, for every accepted synchronous (flow, workload) pair,
//  * intentional mismatches: corrupting the emitted text must flip the
//    harness to a failing verdict (the differential check can actually
//    fail, so its passes mean something).
#include "core/c2h.h"
#include "core/engine.h"
#include "testutil.h"
#include "vsim/compile.h"
#include "vsim/cosim.h"
#include "vsim/cvm.h"
#include "vsim/parser.h"
#include "vsim/sim.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>

namespace c2h {
namespace {

using testutil::contains;

std::shared_ptr<vsim::Model> mustElaborate(const std::string &src,
                                           const std::string &top) {
  vsim::ParseDiagnostic diag;
  auto unit = vsim::parseVerilog(src, diag);
  EXPECT_TRUE(diag.ok()) << diag.str();
  if (!unit)
    return nullptr;
  std::string err;
  auto model = vsim::elaborate(unit, top, err);
  EXPECT_NE(model, nullptr) << err;
  return model;
}

// --------------------------------------------------------------------------
// Lexer / parser
// --------------------------------------------------------------------------

TEST(VsimParser, ParsesSizedAndUnsizedLiterals) {
  vsim::ParseDiagnostic diag;
  auto unit = vsim::parseVerilog("module m;\n"
                                 "  wire [31:0] a = 16'hBEEF;\n"
                                 "  wire [31:0] b = 42;\n"
                                 "  wire [3:0] c = 6'd61;\n" // excess bits drop
                                 "endmodule\n",
                                 diag);
  ASSERT_TRUE(diag.ok()) << diag.str();
  ASSERT_NE(unit, nullptr);
  const vsim::ModuleDecl *m = unit->findModule("m");
  ASSERT_NE(m, nullptr);
  ASSERT_EQ(m->nets.size(), 3u);
  ASSERT_NE(m->nets[0].wireExpr, nullptr);
  EXPECT_EQ(m->nets[0].wireExpr->number.toUint64(), 0xBEEFu);
  EXPECT_EQ(m->nets[0].wireExpr->number.width(), 16u);
  EXPECT_TRUE(m->nets[1].wireExpr->numberSigned); // unsized decimal
  EXPECT_EQ(m->nets[1].wireExpr->number.width(), 32u);
  EXPECT_EQ(m->nets[2].wireExpr->number.toUint64(), 61u & 0x3f);
}

TEST(VsimParser, RejectsFourStateLiterals) {
  vsim::ParseDiagnostic diag;
  auto unit = vsim::parseVerilog("module m;\n  wire a = 1'bx;\nendmodule\n",
                                 diag);
  EXPECT_EQ(unit, nullptr);
  EXPECT_FALSE(diag.ok());
  EXPECT_EQ(diag.line, 2);
  EXPECT_TRUE(contains(diag.message, "2-state")) << diag.message;
}

TEST(VsimParser, ReportsErrorsWithLineAndColumn) {
  vsim::ParseDiagnostic diag;
  auto unit = vsim::parseVerilog("module m;\n"
                                 "  reg [7:0] r;\n"
                                 "  always @(posedge clk) begin\n"
                                 "    r <= 1 +;\n"
                                 "  end\n"
                                 "endmodule\n",
                                 diag);
  EXPECT_EQ(unit, nullptr);
  ASSERT_FALSE(diag.ok());
  EXPECT_EQ(diag.line, 4);
  EXPECT_GT(diag.col, 1);
  EXPECT_TRUE(contains(diag.str(), "line 4:")) << diag.str();
}

TEST(VsimParser, ParsesFullStatementGrammar) {
  vsim::ParseDiagnostic diag;
  auto unit = vsim::parseVerilog(
      "`timescale 1ns/1ps\n"
      "module m;\n"
      "  reg clk = 0;\n"
      "  reg [15:0] state;\n"
      "  reg [31:0] mem [0:7];\n"
      "  integer cycles = 0;\n"
      "  wire [31:0] w = state == 16'h3 ? mem[0] : {16'h0, state};\n"
      "  always #1 clk = ~clk;\n"
      "  always @(posedge clk) begin\n"
      "    case (state)\n"
      "      16'h0: state <= 16'h1;\n"
      "      16'h1, 16'h2: begin state <= state + 16'h1; end\n"
      "      default: state <= 16'h0;\n"
      "    endcase\n"
      "  end\n"
      "  initial begin\n"
      "    repeat (4) @(posedge clk);\n"
      "    wait (state == 16'h0);\n"
      "    $display(\"done %0d %h\", cycles, w);\n"
      "    $finish;\n"
      "  end\n"
      "  initial begin\n"
      "    #100;\n"
      "    $finish;\n"
      "  end\n"
      "endmodule\n",
      diag);
  ASSERT_TRUE(diag.ok()) << diag.str();
  const vsim::ModuleDecl *m = unit->findModule("m");
  ASSERT_NE(m, nullptr);
  EXPECT_EQ(m->always.size(), 2u);
  EXPECT_EQ(m->initials.size(), 2u);
  EXPECT_TRUE(m->always[0].delayLoop);
  EXPECT_EQ(m->always[0].period, 1u);
  EXPECT_FALSE(m->always[1].delayLoop);
}

// --------------------------------------------------------------------------
// Behavioral semantics
// --------------------------------------------------------------------------

TEST(VsimSim, NonBlockingSwapAndBlockingChain) {
  auto model = mustElaborate(
      "module m(input wire clk);\n"
      "  reg [7:0] a = 1;\n"
      "  reg [7:0] b = 2;\n"
      "  reg [7:0] c;\n"
      "  always @(posedge clk) begin\n"
      "    a <= b;\n"
      "    b <= a;\n"  // NBA: reads old a — swap
      "    c = a;\n"   // blocking: old a (NBA not yet committed)
      "    c = c + 8'h1;\n"
      "  end\n"
      "endmodule\n",
      "m");
  ASSERT_NE(model, nullptr);
  vsim::Simulation sim(model);
  sim.settle();
  sim.tick();
  ASSERT_TRUE(sim.ok()) << sim.error();
  EXPECT_EQ(sim.peek("a").toUint64(), 2u);
  EXPECT_EQ(sim.peek("b").toUint64(), 1u);
  EXPECT_EQ(sim.peek("c").toUint64(), 2u); // old a + 1
  sim.tick();
  EXPECT_EQ(sim.peek("a").toUint64(), 1u);
  EXPECT_EQ(sim.peek("b").toUint64(), 2u);
}

TEST(VsimSim, MemoriesInitializeAndReadWrite) {
  auto model = mustElaborate(
      "module m(input wire clk, input wire [2:0] addr,\n"
      "         output reg [15:0] q);\n"
      "  reg [15:0] rom [0:7];\n"
      "  initial begin\n"
      "    rom[0] = 16'h10;\n"
      "    rom[1] = 16'h20;\n"
      "  end\n"
      "  always @(posedge clk) begin\n"
      "    q <= rom[addr];\n"
      "    rom[7] <= 16'hFFFF;\n"
      "  end\n"
      "endmodule\n",
      "m");
  ASSERT_NE(model, nullptr);
  vsim::Simulation sim(model);
  sim.settle(); // run initial blocks
  sim.poke("addr", BitVector(3, 1));
  sim.tick();
  ASSERT_TRUE(sim.ok()) << sim.error();
  EXPECT_EQ(sim.peek("q").toUint64(), 0x20u);
  auto rom = sim.memoryContents("rom");
  ASSERT_EQ(rom.size(), 8u);
  EXPECT_EQ(rom[0].toUint64(), 0x10u);
  EXPECT_EQ(rom[7].toUint64(), 0xFFFFu);
}

TEST(VsimSim, SignedArithmeticAndPartSelects) {
  auto model = mustElaborate(
      "module m(input wire [7:0] a, input wire [7:0] b,\n"
      "         output reg x);\n"
      "  wire [7:0] q = $signed(a) >>> 2;\n"
      "  wire lt = $signed(a) < $signed(b);\n"
      "  wire [3:0] hi = a[7:4];\n"
      "  wire bit0 = a[0];\n"
      "  wire [15:0] cat = {a, b};\n"
      "  wire [15:0] sext = {{8{a[7]}}, a};\n"
      "endmodule\n",
      "m");
  ASSERT_NE(model, nullptr);
  vsim::Simulation sim(model);
  sim.poke("a", BitVector(8, 0xF0)); // -16 signed
  sim.poke("b", BitVector(8, 0x01));
  sim.settle();
  ASSERT_TRUE(sim.ok()) << sim.error();
  EXPECT_EQ(sim.peek("q").toUint64(), 0xFCu);   // -16 >>> 2 = -4
  EXPECT_EQ(sim.peek("lt").toUint64(), 1u);     // -16 < 1
  EXPECT_EQ(sim.peek("hi").toUint64(), 0xFu);
  EXPECT_EQ(sim.peek("bit0").toUint64(), 0u);
  EXPECT_EQ(sim.peek("cat").toUint64(), 0xF001u);
  EXPECT_EQ(sim.peek("sext").toUint64(), 0xFFF0u);
}

TEST(VsimSim, DisplayAndFinishInTestbench) {
  vsim::TestbenchResult r = vsim::runTestbench(
      "module tb;\n"
      "  reg clk = 0;\n"
      "  integer n = 0;\n"
      "  always #1 clk = ~clk;\n"
      "  always @(posedge clk) n = n + 1;\n"
      "  initial begin\n"
      "    repeat (3) @(posedge clk);\n"
      "    $display(\"n=%0d neg=%0d hex=%h\", n, -5, 16'hBEEF);\n"
      "    $finish;\n"
      "  end\n"
      "endmodule\n",
      "tb");
  ASSERT_TRUE(r.error.empty()) << r.error;
  EXPECT_TRUE(r.finished);
  ASSERT_EQ(r.output.size(), 1u);
  EXPECT_EQ(r.output[0], "n=3 neg=-5 hex=beef");
}

TEST(VsimSim, CombinationalLoopIsAnError) {
  auto model = mustElaborate("module m;\n"
                             "  wire a = b;\n"
                             "  wire b = a;\n"
                             "endmodule\n",
                             "m");
  ASSERT_NE(model, nullptr);
  vsim::Simulation sim(model);
  sim.peek("a");
  EXPECT_FALSE(sim.ok());
  EXPECT_TRUE(contains(sim.error(), "loop")) << sim.error();
}

// --------------------------------------------------------------------------
// Testbench verdicts: PASS path and the deliberately-wrong FAIL path
// --------------------------------------------------------------------------

struct TbRun {
  flows::FlowResult flow;
  std::vector<BitVector> args;
  BitVector golden{1};
};

TbRun buildGcd() {
  const core::Workload &w = core::findWorkload("gcd");
  TbRun t{flows::runFlow(*flows::findFlow("bachc"), w.source, w.top),
          {},
          BitVector(1)};
  EXPECT_TRUE(t.flow.ok) << t.flow.error;
  auto golden = core::runGoldenModel(w);
  EXPECT_TRUE(golden.ok) << golden.detail;
  TypeContext types;
  DiagnosticEngine diags;
  auto program = frontend(w.source, types, diags);
  t.args = core::argBits(*program, w.top, w.args);
  t.golden = golden.returnValue.resize(32, true);
  return t;
}

TEST(VsimTestbench, SelfCheckPasses) {
  TbRun t = buildGcd();
  ASSERT_TRUE(t.flow.ok);
  std::string src = rtl::emitVerilog(*t.flow.design) + "\n" +
                    rtl::emitTestbench(*t.flow.design, t.args, t.golden);
  vsim::TestbenchResult r = vsim::runTestbench(src, "c2h_main_tb");
  ASSERT_TRUE(r.error.empty()) << r.error;
  ASSERT_TRUE(r.finished);
  ASSERT_FALSE(r.output.empty());
  EXPECT_TRUE(contains(r.output.front(), "PASS")) << r.output.front();
}

TEST(VsimTestbench, WrongExpectedValueFails) {
  TbRun t = buildGcd();
  ASSERT_TRUE(t.flow.ok);
  BitVector wrong = t.golden.add(BitVector(32, 1));
  std::string src = rtl::emitVerilog(*t.flow.design) + "\n" +
                    rtl::emitTestbench(*t.flow.design, t.args, wrong);
  vsim::TestbenchResult r = vsim::runTestbench(src, "c2h_main_tb");
  ASSERT_TRUE(r.error.empty()) << r.error;
  ASSERT_TRUE(r.finished);
  ASSERT_FALSE(r.output.empty());
  EXPECT_TRUE(contains(r.output.front(), "FAIL")) << r.output.front();
}

// --------------------------------------------------------------------------
// Three-model differential harness
// --------------------------------------------------------------------------

TEST(VsimCosim, MatchesFsmdCyclesExactly) {
  const core::Workload &w = core::findWorkload("gcd");
  auto r = flows::runFlow(*flows::findFlow("bachc"), w.source, w.top);
  ASSERT_TRUE(r.ok) << r.error;
  TypeContext types;
  DiagnosticEngine diags;
  auto program = frontend(w.source, types, diags);
  auto args = core::argBits(*program, w.top, w.args);

  rtl::Simulator fsmd(*r.design);
  auto f = fsmd.run(args);
  ASSERT_TRUE(f.ok) << f.error;

  vsim::CosimResult c = vsim::cosimulate(*r.design, args);
  ASSERT_TRUE(c.ok) << c.error;
  EXPECT_EQ(c.returnValue.resize(32, false).toStringHex(),
            f.returnValue.resize(32, false).toStringHex());
  EXPECT_EQ(c.cycles, f.cycles);
}

TEST(VsimCosim, ThreeModelVerdictViaVerify) {
  const core::Workload &w = core::findWorkload("fir");
  auto r = flows::runFlow(*flows::findFlow("handelc"), w.source, w.top);
  ASSERT_TRUE(r.ok) << r.error;
  core::CosimVerification cv = core::cosimAgainstGoldenModel(w, r);
  EXPECT_TRUE(cv.ran);
  EXPECT_TRUE(cv.ok) << cv.detail;
  core::Verification v = core::verifyAgainstGoldenModel(w, r);
  ASSERT_TRUE(v.ok) << v.detail;
  EXPECT_EQ(cv.cycles, v.cycles);
}

// The engine hands cosim the verify step's witnesses instead of re-running
// them.  Cosim must still catch a lie in any of them: a wrong FSMD cycle
// count, a wrong golden return value, a wrong golden global element.
TEST(VsimCosim, HandedInWitnessesAreStillChecked) {
  const core::Workload &w = core::findWorkload("fir");
  TypeContext types;
  DiagnosticEngine diags;
  auto program = frontend(w.source, types, diags);
  ASSERT_TRUE(program) << diags.str();
  auto r = flows::runFlow(*flows::findFlow("handelc"), w.source, w.top);
  ASSERT_TRUE(r.ok) << r.error;
  const core::GoldenRun golden = core::runGoldenModel(w, *program);
  ASSERT_TRUE(golden.ok) << golden.detail;
  ASSERT_EQ(golden.globals.size(), 1u); // fir checks y[32]
  ASSERT_EQ(golden.globals[0].size(), 32u);
  core::Verification v =
      core::verifyAgainstGoldenModel(w, r, *program, golden);
  ASSERT_TRUE(v.ok) << v.detail;
  auto cosim = [&](const core::GoldenRun &g, std::uint64_t fsmdCycles) {
    return core::cosimAgainstGoldenModel(w, r, *program, g, fsmdCycles);
  };

  core::CosimVerification honest = cosim(golden, v.cycles);
  EXPECT_TRUE(honest.ok) << honest.detail;
  EXPECT_EQ(honest.cycles, v.cycles);

  core::CosimVerification cycles = cosim(golden, v.cycles + 1);
  EXPECT_TRUE(cycles.ran);
  EXPECT_FALSE(cycles.ok);
  EXPECT_TRUE(contains(cycles.detail, "cycle count mismatch")) << cycles.detail;

  core::GoldenRun lie = golden;
  lie.returnValue = golden.returnValue.bitNot();
  core::CosimVerification ret = cosim(lie, v.cycles);
  EXPECT_FALSE(ret.ok);
  EXPECT_TRUE(contains(ret.detail, "vsim return value mismatch")) << ret.detail;

  lie = golden;
  lie.globals[0][5] = golden.globals[0][5].bitNot();
  core::CosimVerification global = cosim(lie, v.cycles);
  EXPECT_FALSE(global.ok);
  EXPECT_TRUE(contains(global.detail, "global 'y[5]' mismatch")) << global.detail;
  EXPECT_TRUE(contains(global.detail, "vs vsim")) << global.detail;
}

TEST(VsimCosim, AsyncDesignsReportNotRun) {
  const core::Workload &w = core::findWorkload("gcd");
  auto r = flows::runFlow(*flows::findFlow("cash"), w.source, w.top);
  if (!r.accepted || !r.ok)
    GTEST_SKIP() << "cash rejected gcd";
  core::CosimVerification cv = core::cosimAgainstGoldenModel(w, r);
  EXPECT_FALSE(cv.ran);
  EXPECT_TRUE(contains(cv.detail, "asynchronous")) << cv.detail;
}

// The acceptance criterion: every accepted synchronous (flow, workload)
// pair in the standard registry parses, simulates, and matches the
// interpreter's return value AND the FSMD simulator's exact cycle count.
TEST(VsimCosim, FullRegistrySweepAgrees) {
  core::EngineOptions opts;
  opts.cosim = true;
  core::CompareEngine engine(opts);
  unsigned cosimmed = 0;
  for (const auto &w : core::standardWorkloads()) {
    auto rows = engine.compareFlows(w);
    for (const auto &row : rows) {
      if (!row.verified)
        continue;
      // Every verified synchronous design must have been co-simulated.
      if (!row.cosimRan) {
        EXPECT_GT(row.asyncNs, 0.0)
            << row.flowId << " on " << w.name << " skipped cosim";
        continue;
      }
      ++cosimmed;
      EXPECT_TRUE(row.cosimOk)
          << row.flowId << " on " << w.name << ": " << row.cosimNote;
      EXPECT_EQ(row.cosimCycles, row.cycles)
          << row.flowId << " on " << w.name;
    }
  }
  EXPECT_GT(cosimmed, 80u); // the sweep really covered the matrix
}

// --------------------------------------------------------------------------
// Intentional mismatches: prove the harness can fail
// --------------------------------------------------------------------------

TEST(VsimCosim, CorruptedDesignIsCaught) {
  const core::Workload &w = core::findWorkload("gcd");
  auto r = flows::runFlow(*flows::findFlow("bachc"), w.source, w.top);
  ASSERT_TRUE(r.ok) << r.error;
  TypeContext types;
  DiagnosticEngine diags;
  auto program = frontend(w.source, types, diags);
  auto args = core::argBits(*program, w.top, w.args);

  rtl::Simulator fsmd(*r.design);
  auto f = fsmd.run(args);
  ASSERT_TRUE(f.ok) << f.error;

  // Corrupt the datapath: retval loads garbage instead of the result.
  std::string text = rtl::emitVerilog(*r.design);
  std::size_t pos = text.find("retval <= ");
  ASSERT_NE(pos, std::string::npos);
  std::size_t end = text.find(';', pos);
  text.replace(pos, end - pos, "retval <= 32'hDEAD_BEEF");
  vsim::CosimResult c =
      vsim::cosimulateSource(text, "c2h_" + rtl::verilogIdent(r.design->top),
                             args);
  ASSERT_TRUE(c.ok) << c.error; // it still runs to done...
  EXPECT_NE(c.returnValue.resize(32, false).toStringHex(),
            f.returnValue.resize(32, false).toStringHex())
      << "corruption was not observable";
}

TEST(VsimCosim, StolenCycleIsCaught) {
  // Make the FSM skip a state: cycle counts must diverge from the FSMD
  // simulator, which is exactly what the three-model check reports.
  const core::Workload &w = core::findWorkload("gcd");
  auto r = flows::runFlow(*flows::findFlow("bachc"), w.source, w.top);
  ASSERT_TRUE(r.ok) << r.error;
  TypeContext types;
  DiagnosticEngine diags;
  auto program = frontend(w.source, types, diags);
  auto args = core::argBits(*program, w.top, w.args);

  rtl::Simulator fsmd(*r.design);
  auto f = fsmd.run(args);
  ASSERT_TRUE(f.ok) << f.error;

  std::string text = rtl::emitVerilog(*r.design);
  // Delay `done` by one extra cycle: reroute the done assignment through
  // an extra always block... simplest robust corruption: make the counter
  // state machine pause by turning `done <= 1'b1` into a two-step.
  // Instead, corrupt a state transition target so one state repeats once:
  // find the first "_state <= 16'h" and bump nothing — corrupt done:
  std::size_t pos = text.find("done <= 1'b1");
  ASSERT_NE(pos, std::string::npos);
  // done never asserts => vsim must hit the cycle budget and report it.
  text.replace(pos, std::string("done <= 1'b1").size(), "done <= 1'b0");
  vsim::CosimOptions opts;
  opts.maxCycles = 10'000;
  vsim::CosimResult c =
      vsim::cosimulateSource(text, "c2h_" + rtl::verilogIdent(r.design->top),
                             args, opts);
  EXPECT_FALSE(c.ok);
  EXPECT_TRUE(contains(c.error, "cycle")) << c.error;
}

// --------------------------------------------------------------------------
// The cycle-compiled engine: agreement with the event engine, loud
// failure on corruption, and cheap re-runs
// --------------------------------------------------------------------------

// Both engines on the same elaborated design must agree on the return
// value and the exact cycle count — and the compiled engine must actually
// engage (no silent fallback) for every registry design it claims.
TEST(VsimCompiled, AgreesWithEventEngineAcrossRegistry) {
  unsigned compiled = 0;
  for (const auto &w : core::standardWorkloads()) {
    auto r = flows::runFlow(*flows::findFlow("bachc"), w.source, w.top);
    if (!r.ok || !r.design)
      continue;
    TypeContext types;
    DiagnosticEngine diags;
    auto program = frontend(w.source, types, diags);
    auto args = core::argBits(*program, w.top, w.args);

    vsim::Cosimulation cosim(*r.design);
    ASSERT_TRUE(cosim.valid()) << w.name << ": " << cosim.error();
    vsim::CosimOptions ev, cp;
    ev.engine = vsim::SimEngine::Event;
    cp.engine = vsim::SimEngine::Compiled;
    auto re = cosim.run(args, ev);
    ASSERT_TRUE(re.ok) << w.name << ": " << re.error;
    EXPECT_EQ(re.engine, vsim::SimEngine::Event);
    auto rc = cosim.run(args, cp);
    ASSERT_TRUE(rc.ok) << w.name << ": " << rc.error;
    ASSERT_EQ(rc.engine, vsim::SimEngine::Compiled)
        << w.name << " fell back: " << cosim.compileNote();
    ++compiled;
    EXPECT_EQ(re.returnValue.resize(32, false).toStringHex(),
              rc.returnValue.resize(32, false).toStringHex())
        << w.name << ": engine value divergence";
    EXPECT_EQ(re.cycles, rc.cycles) << w.name
                                    << ": engine cycle divergence";
  }
  EXPECT_GT(compiled, 10u); // the sweep really exercised the VM
}

// The compiled engine must fail as loudly as the event engine on a
// corrupted datapath: a garbage retval is a value mismatch, not a crash
// or a silent pass.
TEST(VsimCompiled, CorruptedRetvalIsCaught) {
  const core::Workload &w = core::findWorkload("gcd");
  auto r = flows::runFlow(*flows::findFlow("bachc"), w.source, w.top);
  ASSERT_TRUE(r.ok) << r.error;
  TypeContext types;
  DiagnosticEngine diags;
  auto program = frontend(w.source, types, diags);
  auto args = core::argBits(*program, w.top, w.args);

  rtl::Simulator fsmd(*r.design);
  auto f = fsmd.run(args);
  ASSERT_TRUE(f.ok) << f.error;

  std::string text = rtl::emitVerilog(*r.design);
  std::size_t pos = text.find("retval <= ");
  ASSERT_NE(pos, std::string::npos);
  std::size_t end = text.find(';', pos);
  text.replace(pos, end - pos, "retval <= 32'hDEAD_BEEF");
  vsim::CosimOptions opts;
  opts.engine = vsim::SimEngine::Compiled;
  vsim::CosimResult c = vsim::cosimulateSource(
      text, "c2h_" + rtl::verilogIdent(r.design->top), args, opts);
  ASSERT_TRUE(c.ok) << c.error;
  EXPECT_NE(c.returnValue.resize(32, false).toStringHex(),
            f.returnValue.resize(32, false).toStringHex())
      << "corruption was not observable under the compiled engine";
}

// A stolen done assertion must hit the cycle budget under the compiled
// engine exactly as it does under the event engine.
TEST(VsimCompiled, StolenDoneIsCaught) {
  const core::Workload &w = core::findWorkload("gcd");
  auto r = flows::runFlow(*flows::findFlow("bachc"), w.source, w.top);
  ASSERT_TRUE(r.ok) << r.error;
  TypeContext types;
  DiagnosticEngine diags;
  auto program = frontend(w.source, types, diags);
  auto args = core::argBits(*program, w.top, w.args);

  std::string text = rtl::emitVerilog(*r.design);
  std::size_t pos = text.find("done <= 1'b1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::string("done <= 1'b1").size(), "done <= 1'b0");
  vsim::CosimOptions opts;
  opts.engine = vsim::SimEngine::Compiled;
  opts.maxCycles = 10'000;
  vsim::CosimResult c = vsim::cosimulateSource(
      text, "c2h_" + rtl::verilogIdent(r.design->top), args, opts);
  EXPECT_FALSE(c.ok);
  EXPECT_TRUE(contains(c.error, "cycle")) << c.error;
  // The event-engine retry failed too; the compiled engine's own trip is
  // what the degradation records.
  EXPECT_TRUE(contains(c.degradation,
                       "compiled engine: vsim: cycle budget exceeded"))
      << c.degradation;
}

// Repeated runs through one Cosimulation reuse the compiled model and
// the post-`initial` image (the crc8small fix): every run must still
// start from identical state and report identical results.
TEST(VsimCompiled, RepeatedRunsAreDeterministic) {
  const core::Workload &w = core::findWorkload("crc8small");
  auto r = flows::runFlow(*flows::findFlow("bachc"), w.source, w.top);
  ASSERT_TRUE(r.ok) << r.error;
  TypeContext types;
  DiagnosticEngine diags;
  auto program = frontend(w.source, types, diags);
  auto args = core::argBits(*program, w.top, w.args);

  for (auto engine : {vsim::SimEngine::Event, vsim::SimEngine::Compiled}) {
    vsim::Cosimulation cosim(*r.design);
    vsim::CosimOptions opts;
    opts.engine = engine;
    auto first = cosim.run(args, opts);
    ASSERT_TRUE(first.ok) << first.error;
    for (int i = 0; i < 3; ++i) {
      auto again = cosim.run(args, opts);
      ASSERT_TRUE(again.ok) << again.error;
      EXPECT_EQ(first.returnValue.toStringHex(),
                again.returnValue.toStringHex());
      EXPECT_EQ(first.cycles, again.cycles);
    }
  }
}

// A one-entry model cache over two designs: A, B, A are three misses, and
// only the last design stays resident.
TEST(VsimCosim, ModelCacheOfOneEvictsTheOtherDesign) {
  vsim::ModelCache cache(1);
  auto cosimOnce = [&cache](const char *name) {
    const core::Workload &w = core::findWorkload(name);
    auto r = flows::runFlow(*flows::findFlow("bachc"), w.source, w.top);
    ASSERT_TRUE(r.ok) << r.error;
    TypeContext types;
    DiagnosticEngine diags;
    auto program = frontend(w.source, types, diags);
    ASSERT_NE(program, nullptr) << diags.str();
    vsim::Cosimulation cosim(*r.design, &cache);
    auto result = cosim.run(core::argBits(*program, w.top, w.args));
    EXPECT_TRUE(result.ok) << name << ": " << result.error;
  };
  cosimOnce("gcd");
  cosimOnce("fir");
  cosimOnce("gcd");
  support::CacheStats s = cache.stats();
  EXPECT_EQ(s.misses, 3u);
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.capacity, 1u);
}

// Testbench-style models (a delay loop driving its own clock) used to be
// outside the compiled subset; they now compile in behavioral mode.  The
// compiled subset equals the event subset — only a combinational loop or
// an injected compile fault may refuse.
TEST(VsimCompiled, SelfClockedModelCompilesBehaviorally) {
  std::string err;
  vsim::ParseDiagnostic diag;
  auto unit = vsim::parseVerilog("module m(input wire clk, input wire rst,"
                                 " input wire start, output reg done);\n"
                                 "  always @(posedge clk) done <= start;\n"
                                 "  reg selfclk;\n"
                                 "  always #5 selfclk = !selfclk;\n"
                                 "endmodule\n",
                                 diag);
  ASSERT_TRUE(diag.ok()) << diag.str();
  auto model = vsim::elaborate(unit, "m", err);
  ASSERT_NE(model, nullptr) << err;
  std::string why;
  auto compiled = vsim::compileModel(model, why);
  ASSERT_NE(compiled, nullptr) << why;
  EXPECT_TRUE(compiled->behavioral);
}

// The fallback ladder still exists, but its only remaining legitimate
// trigger is a fault: an armed vsim.compile site downgrades Compiled to
// the event engine with the verdict recorded, and turns CompiledStrict
// into a loud error instead of a silent downgrade.
TEST(VsimCompiled, InjectedCompileFaultIsTheOnlyFallback) {
  const core::Workload &w = core::findWorkload("gcd");
  auto r = flows::runFlow(*flows::findFlow("bachc"), w.source, w.top);
  ASSERT_TRUE(r.ok) << r.error;
  TypeContext types;
  DiagnosticEngine diags;
  auto program = frontend(w.source, types, diags);
  auto args = core::argBits(*program, w.top, w.args);

  {
    guard::armFault("vsim.compile");
    vsim::Cosimulation cosim(*r.design);
    vsim::CosimOptions opts;
    opts.engine = vsim::SimEngine::Compiled;
    auto res = cosim.run(args, opts);
    guard::disarmFaults();
    ASSERT_TRUE(res.ok) << res.error; // graceful: event engine took over
    EXPECT_EQ(res.engine, vsim::SimEngine::Event);
    EXPECT_TRUE(contains(cosim.compileNote(), "INJECTED_FAULT"))
        << cosim.compileNote();
  }
  {
    guard::armFault("vsim.compile");
    vsim::Cosimulation cosim(*r.design);
    vsim::CosimOptions opts;
    opts.engine = vsim::SimEngine::CompiledStrict;
    auto res = cosim.run(args, opts);
    guard::disarmFaults();
    EXPECT_FALSE(res.ok);
    EXPECT_TRUE(contains(res.error, "compiled-strict")) << res.error;
    EXPECT_EQ(res.verdict.kind, guard::Kind::InjectedFault);
  }
}

// Registry-wide no-fallback sweep: compileModel must succeed for every
// design the event engine accepts — every accepted synchronous (flow,
// workload) pair AND its generated self-checking testbench.  This is the
// closed-subset claim as a test; bench_cosim enforces the same property
// with exact-agreement runs.
TEST(VsimCompiled, NoFallbackAcrossRegistry) {
  unsigned designs = 0, testbenches = 0;
  for (const auto &w : core::standardWorkloads()) {
    TypeContext types;
    DiagnosticEngine diags;
    auto program = frontend(w.source, types, diags);
    if (!program)
      continue;
    auto args = core::argBits(*program, w.top, w.args);
    Interpreter interp(*program);
    auto golden = interp.call(w.top, args);
    for (const auto &spec : flows::allFlows()) {
      if (spec.asyncDataflow)
        continue;
      auto r = flows::runFlow(spec, w.source, w.top);
      if (!r.ok || !r.design)
        continue;
      std::string text = rtl::emitVerilog(*r.design);
      std::string top = "c2h_" + rtl::verilogIdent(r.design->top);
      vsim::ParseDiagnostic diag;
      auto unit = vsim::parseVerilog(text, diag);
      ASSERT_TRUE(diag.ok()) << w.name << "/" << spec.info.id << ": "
                             << diag.str();
      std::string err, why;
      auto model = vsim::elaborate(unit, top, err);
      ASSERT_NE(model, nullptr) << w.name << "/" << spec.info.id << ": "
                                << err;
      EXPECT_NE(vsim::compileModel(model, why), nullptr)
          << w.name << "/" << spec.info.id << " fell back: " << why;
      ++designs;
      if (!golden.ok)
        continue;
      std::string tb =
          text + rtl::emitTestbench(*r.design, args, golden.returnValue);
      vsim::ParseDiagnostic tbDiag;
      auto tbUnit = vsim::parseVerilog(tb, tbDiag);
      ASSERT_TRUE(tbDiag.ok()) << w.name << "/" << spec.info.id << ": "
                               << tbDiag.str();
      auto tbModel = vsim::elaborate(tbUnit, top + "_tb", err);
      ASSERT_NE(tbModel, nullptr) << w.name << "/" << spec.info.id << ": "
                                  << err;
      EXPECT_NE(vsim::compileModel(tbModel, why), nullptr)
          << w.name << "/" << spec.info.id << " testbench fell back: "
          << why;
      ++testbenches;
    }
  }
  EXPECT_GT(designs, 100u);     // the sweep really covered the registry
  EXPECT_GT(testbenches, 100u);
}

// Regression for closed gap (a): a generated testbench — `always #1`
// clock, repeat/@(posedge)/wait threads, $display, $finish — runs on the
// compiled engine with no fallback and byte-identical results.
TEST(VsimCompiled, DelayThreadTestbenchMatchesEventEngine) {
  TbRun t = buildGcd();
  ASSERT_TRUE(t.flow.ok);
  std::string src = rtl::emitVerilog(*t.flow.design) + "\n" +
                    rtl::emitTestbench(*t.flow.design, t.args, t.golden);
  vsim::TestbenchResult event = vsim::runTestbench(src, "c2h_main_tb");
  ASSERT_TRUE(event.error.empty()) << event.error;
  std::string note;
  vsim::TestbenchResult compiled = vsim::runTestbench(
      src, "c2h_main_tb", 20'000'000, vsim::SimEngine::CompiledStrict,
      &note);
  EXPECT_TRUE(note.empty()) << "fell back: " << note;
  ASSERT_TRUE(compiled.error.empty()) << compiled.error;
  EXPECT_TRUE(compiled.finished);
  EXPECT_EQ(event.timeUnits, compiled.timeUnits);
  EXPECT_EQ(event.output, compiled.output);
  ASSERT_FALSE(compiled.output.empty());
  EXPECT_TRUE(contains(compiled.output.front(), "PASS"))
      << compiled.output.front();
}

// Regression for closed gap (b): two independent clock domains with
// different periods.  The compiled engine's per-domain interleaving must
// reproduce the event engine's deterministic schedule exactly — counts,
// $display order, and finish time.
TEST(VsimCompiled, TwoClockDesignMatchesEventEngine) {
  const std::string src =
      "module tb;\n"
      "  reg clka = 0;\n"
      "  reg clkb = 0;\n"
      "  integer na = 0;\n"
      "  integer nb = 0;\n"
      "  reg [7:0] xfer = 0;\n"
      "  always #2 clka = ~clka;\n"
      "  always #3 clkb = ~clkb;\n"
      "  always @(posedge clka) na = na + 1;\n"
      "  always @(posedge clkb) begin\n"
      "    nb = nb + 1;\n"
      "    xfer <= na[7:0];\n" // cross-domain sample, NBA-committed
      "  end\n"
      "  initial begin\n"
      "    repeat (7) @(posedge clkb);\n"
      "    $display(\"na=%0d nb=%0d xfer=%0d\", na, nb, xfer);\n"
      "    wait (na >= 12);\n"
      "    $display(\"done na=%0d nb=%0d\", na, nb);\n"
      "    $finish;\n"
      "  end\n"
      "endmodule\n";
  vsim::TestbenchResult event = vsim::runTestbench(src, "tb");
  ASSERT_TRUE(event.error.empty()) << event.error;
  ASSERT_TRUE(event.finished);
  std::string note;
  vsim::TestbenchResult compiled = vsim::runTestbench(
      src, "tb", 20'000'000, vsim::SimEngine::CompiledStrict, &note);
  EXPECT_TRUE(note.empty()) << "fell back: " << note;
  ASSERT_TRUE(compiled.error.empty()) << compiled.error;
  EXPECT_TRUE(compiled.finished);
  EXPECT_EQ(event.timeUnits, compiled.timeUnits);
  EXPECT_EQ(event.output, compiled.output);
}

// Regression for closed gap (c): $readmemh in a plain initial block lands
// in the compiled init image — the VM starts from the loaded ROM without
// falling back, and both engines read identical contents.
TEST(VsimCompiled, ReadMemInitMatchesEventEngine) {
  const char *path = "vsim_compiled_init.hex";
  {
    std::ofstream out(path);
    out << "11 22 33 44\n@6\n55\n";
  }
  auto model = mustElaborate("module m(input wire clk);\n"
                             "  reg [7:0] rom [0:7];\n"
                             "  initial $readmemh(\"" +
                                 std::string(path) + "\", rom);\n"
                             "endmodule\n",
                             "m");
  ASSERT_NE(model, nullptr);
  vsim::Simulation event(model);
  event.settle();
  ASSERT_TRUE(event.ok()) << event.error();
  std::string why;
  auto compiled = vsim::compileModel(model, why);
  ASSERT_NE(compiled, nullptr) << why;
  EXPECT_FALSE(compiled->behavioral); // plain init: image, not threads
  vsim::CompiledSimulation vm(compiled);
  auto ec = event.memoryContents("rom");
  auto cc = vm.memoryContents("rom");
  ASSERT_EQ(ec.size(), cc.size());
  for (std::size_t i = 0; i < ec.size(); ++i)
    EXPECT_EQ(ec[i].toUint64(), cc[i].toUint64()) << "rom[" << i << "]";
  EXPECT_EQ(cc[0].toUint64(), 0x11u);
  EXPECT_EQ(cc[6].toUint64(), 0x55u);
  std::remove(path);
}

// The VM's word paths (wordops.h) at their edges: division and remainder
// by zero, most-negative / -1, arithmetic shifts by 0, width-1, width and
// >= 64 (and by an amount past 31 bits), and signed/unsigned compares at
// widths 1, 33 and 64.  Every output must match the event engine for every
// input combination.
TEST(VsimCompiled, WordOpsMatchEventEngine) {
  auto model = mustElaborate(
      "module m(input wire [7:0] a8, input wire [7:0] b8,\n"
      "         input wire [31:0] a32, input wire [31:0] b32,\n"
      "         input wire [63:0] a64, input wire [63:0] b64,\n"
      "         input wire a1, input wire b1,\n"
      "         input wire [32:0] a33, input wire [32:0] b33,\n"
      "         input wire [39:0] sh);\n"
      "  wire [7:0] udiv8 = a8 / b8;\n"
      "  wire [7:0] umod8 = a8 % b8;\n"
      "  wire [7:0] sdiv8 = $signed(a8) / $signed(b8);\n"
      "  wire [7:0] smod8 = $signed(a8) % $signed(b8);\n"
      "  wire [31:0] udiv32 = a32 / b32;\n"
      "  wire [31:0] umod32 = a32 % b32;\n"
      "  wire [31:0] sdiv32 = $signed(a32) / $signed(b32);\n"
      "  wire [31:0] smod32 = $signed(a32) % $signed(b32);\n"
      "  wire [63:0] udiv64 = a64 / b64;\n"
      "  wire [63:0] umod64 = a64 % b64;\n"
      "  wire [63:0] sdiv64 = $signed(a64) / $signed(b64);\n"
      "  wire [63:0] smod64 = $signed(a64) % $signed(b64);\n"
      "  wire [7:0] sar8 = $signed(a8) >>> sh;\n"
      "  wire [7:0] uar8 = a8 >>> sh;\n"
      "  wire [31:0] sar32 = $signed(a32) >>> sh;\n"
      "  wire [31:0] uar32 = a32 >>> sh;\n"
      "  wire [63:0] sar64 = $signed(a64) >>> sh;\n"
      "  wire [63:0] uar64 = a64 >>> sh;\n"
      "  wire slt1 = $signed(a1) < $signed(b1);\n"
      "  wire sle1 = $signed(a1) <= $signed(b1);\n"
      "  wire seq1 = $signed(a1) == $signed(b1);\n"
      "  wire sne1 = $signed(a1) != $signed(b1);\n"
      "  wire ult1 = a1 < b1;\n"
      "  wire ule1 = a1 <= b1;\n"
      "  wire ueq1 = a1 == b1;\n"
      "  wire une1 = a1 != b1;\n"
      "  wire slt33 = $signed(a33) < $signed(b33);\n"
      "  wire sle33 = $signed(a33) <= $signed(b33);\n"
      "  wire seq33 = $signed(a33) == $signed(b33);\n"
      "  wire sne33 = $signed(a33) != $signed(b33);\n"
      "  wire ult33 = a33 < b33;\n"
      "  wire ule33 = a33 <= b33;\n"
      "  wire ueq33 = a33 == b33;\n"
      "  wire une33 = a33 != b33;\n"
      "  wire slt64 = $signed(a64) < $signed(b64);\n"
      "  wire sle64 = $signed(a64) <= $signed(b64);\n"
      "  wire seq64 = $signed(a64) == $signed(b64);\n"
      "  wire sne64 = $signed(a64) != $signed(b64);\n"
      "  wire ult64 = a64 < b64;\n"
      "  wire ule64 = a64 <= b64;\n"
      "  wire ueq64 = a64 == b64;\n"
      "  wire une64 = a64 != b64;\n"
      "endmodule\n",
      "m");
  ASSERT_NE(model, nullptr);
  const std::vector<std::string> outputs = {
      "udiv8",  "umod8",  "sdiv8",  "smod8",  "udiv32", "umod32", "sdiv32",
      "smod32", "udiv64", "umod64", "sdiv64", "smod64", "sar8",   "uar8",
      "sar32",  "uar32",  "sar64",  "uar64",  "slt1",   "sle1",   "seq1",
      "sne1",   "ult1",   "ule1",   "ueq1",   "une1",   "slt33",  "sle33",
      "seq33",  "sne33",  "ult33",  "ule33",  "ueq33",  "une33",  "slt64",
      "sle64",  "seq64",  "sne64",  "ult64",  "ule64",  "ueq64",  "une64"};
  vsim::CompileAttempt attempt;
  std::string strictError;
  auto compiled = vsim::selectEngine(
      model, vsim::SimEngine::CompiledStrict, attempt, strictError);
  ASSERT_NE(compiled, nullptr) << strictError;
  vsim::CompiledSimulation vm(compiled);
  vsim::Simulation event(model);

  // Per width: zero, one, a small value, the most negative value and its
  // neighbour, the most positive value, all ones (-1), and a scrambled
  // pattern.  Both operands range over all of them.
  auto operands = [](unsigned w) {
    std::uint64_t mask = BitVector::wordMask(w), min = 1ull << (w - 1);
    return std::vector<std::uint64_t>{
        0, 1, 7 & mask, min, (min + 1) & mask, min - 1, mask,
        0x9E3779B97F4A7C15ull & mask};
  };
  const std::uint64_t shifts[] = {0,  1,  7,   8,          31,
                                  32, 63, 64,  65,         200,
                                  1ull << 31, (1ull << 35) + 3};
  const unsigned widths[] = {1, 8, 32, 33, 64};
  const std::size_t n = operands(8).size();
  unsigned mismatches = 0;
  std::string first;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j)
      for (std::uint64_t amount : shifts) {
        for (unsigned w : widths) {
          std::string suffix = std::to_string(w);
          BitVector a(w, operands(w)[i]), b(w, operands(w)[j]);
          event.poke("a" + suffix, a);
          event.poke("b" + suffix, b);
          vm.poke("a" + suffix, a);
          vm.poke("b" + suffix, b);
        }
        event.poke("sh", BitVector(40, amount));
        vm.poke("sh", BitVector(40, amount));
        event.settle();
        vm.settle();
        ASSERT_TRUE(event.ok()) << event.error();
        ASSERT_TRUE(vm.ok()) << vm.error();
        for (const std::string &out : outputs) {
          std::uint64_t want = event.peek(out).toUint64();
          std::uint64_t got = vm.peek(out).toUint64();
          if (want != got && mismatches++ == 0)
            first = out + " at operands " + std::to_string(i) + "," +
                    std::to_string(j) + " shift " + std::to_string(amount) +
                    ": event " + std::to_string(want) + ", compiled " +
                    std::to_string(got);
        }
      }
  EXPECT_EQ(mismatches, 0u) << "first: " << first;

  // The edges above are really reached: spot-check a few absolute values.
  vm.poke("a8", BitVector(8, 0x80));
  vm.poke("b8", BitVector(8, 0xFF));
  vm.poke("a64", BitVector(64, 1ull << 63));
  vm.poke("b64", BitVector(64, ~0ull));
  vm.poke("sh", BitVector(40, 200));
  vm.settle();
  EXPECT_EQ(vm.peek("sdiv8").toUint64(), 0x80u); // -128 / -1 wraps
  EXPECT_EQ(vm.peek("smod8").toUint64(), 0u);
  EXPECT_EQ(vm.peek("sdiv64").toUint64(), 1ull << 63);
  EXPECT_EQ(vm.peek("sar8").toUint64(), 0xFFu); // all sign bits
  EXPECT_EQ(vm.peek("uar8").toUint64(), 0u);
  EXPECT_EQ(vm.peek("slt64").toUint64(), 1u); // min < -1
  EXPECT_EQ(vm.peek("ult64").toUint64(), 1u); // 2^63 < 2^64-1
  vm.poke("b8", BitVector(8, 0));
  vm.settle();
  EXPECT_EQ(vm.peek("udiv8").toUint64(), 0xFFu); // x / 0 is all ones
  EXPECT_EQ(vm.peek("umod8").toUint64(), 0x80u); // x % 0 is x
}

// --------------------------------------------------------------------------
// $readmemh / $readmemb
// --------------------------------------------------------------------------

TEST(VsimSim, ReadMemHexLoadsWordsAddressesAndComments) {
  const char *path = "vsim_readmem_test.hex";
  {
    std::ofstream out(path);
    out << "// ROM image\n"
        << "de ad /* block\n comment */ be ef\n"
        << "@8\n"
        << "1_2 xZ\n";
  }
  auto model = mustElaborate("module m;\n"
                             "  reg [7:0] rom [0:15];\n"
                             "  initial $readmemh(\"vsim_readmem_test.hex\","
                             " rom);\n"
                             "endmodule\n",
                             "m");
  ASSERT_NE(model, nullptr);
  vsim::Simulation sim(model);
  sim.settle();
  ASSERT_TRUE(sim.ok()) << sim.error();
  auto cells = sim.memoryContents("rom");
  ASSERT_EQ(cells.size(), 16u);
  EXPECT_EQ(cells[0].toUint64(), 0xdeu);
  EXPECT_EQ(cells[1].toUint64(), 0xadu);
  EXPECT_EQ(cells[2].toUint64(), 0xbeu);
  EXPECT_EQ(cells[3].toUint64(), 0xefu);
  EXPECT_EQ(cells[4].toUint64(), 0u); // untouched gap
  EXPECT_EQ(cells[8].toUint64(), 0x12u); // @8 address record, _ separator
  EXPECT_EQ(cells[9].toUint64(), 0u);    // x/z digits read as zero
  std::remove(path);
}

TEST(VsimSim, ReadMemBinaryFoldsBitsToWords) {
  const char *path = "vsim_readmem_test.bin";
  {
    std::ofstream out(path);
    out << "1010 11111111\n@2\n1\n";
  }
  auto model = mustElaborate("module m;\n"
                             "  reg [7:0] rom [0:3];\n"
                             "  initial $readmemb(\"vsim_readmem_test.bin\","
                             " rom);\n"
                             "endmodule\n",
                             "m");
  ASSERT_NE(model, nullptr);
  vsim::Simulation sim(model);
  sim.settle();
  ASSERT_TRUE(sim.ok()) << sim.error();
  auto cells = sim.memoryContents("rom");
  ASSERT_EQ(cells.size(), 4u);
  EXPECT_EQ(cells[0].toUint64(), 0xau);
  EXPECT_EQ(cells[1].toUint64(), 0xffu);
  EXPECT_EQ(cells[2].toUint64(), 0x1u);
  std::remove(path);
}

TEST(VsimSim, ReadMemMissingFileIsAStructuredIoError) {
  auto model = mustElaborate("module m;\n"
                             "  reg [7:0] rom [0:3];\n"
                             "  initial $readmemh(\"vsim_no_such.hex\","
                             " rom);\n"
                             "endmodule\n",
                             "m");
  ASSERT_NE(model, nullptr);
  vsim::Simulation sim(model);
  sim.settle();
  EXPECT_FALSE(sim.ok());
  EXPECT_EQ(static_cast<int>(sim.verdict().kind),
            static_cast<int>(guard::Kind::IoError));
  EXPECT_TRUE(contains(sim.error(), "vsim_no_such.hex")) << sim.error();
}

TEST(VsimSim, ReadMemMalformedTokenIsAStructuredIoError) {
  const char *path = "vsim_readmem_bad.hex";
  {
    std::ofstream out(path);
    out << "de adqq\n";
  }
  auto model = mustElaborate("module m;\n"
                             "  reg [7:0] rom [0:3];\n"
                             "  initial $readmemh(\"vsim_readmem_bad.hex\","
                             " rom);\n"
                             "endmodule\n",
                             "m");
  ASSERT_NE(model, nullptr);
  vsim::Simulation sim(model);
  sim.settle();
  EXPECT_FALSE(sim.ok());
  EXPECT_EQ(static_cast<int>(sim.verdict().kind),
            static_cast<int>(guard::Kind::IoError));
  std::remove(path);
}

// Adversarial image: an @addr record pointing past the end of the memory
// must be a structured IoError on BOTH engines — never a clamp to the
// last cell, and never a silent fallback.  Words parsed before the bad
// record stay loaded (the event engine's historical behavior).
TEST(VsimSim, ReadMemAddressPastEndIsAStructuredIoError) {
  const char *path = "vsim_readmem_oob.hex";
  {
    std::ofstream out(path);
    out << "de ad\n@20\nbe\n"; // @0x20 = 32, depth is 16
  }
  auto model = mustElaborate("module m;\n"
                             "  reg [7:0] rom [0:15];\n"
                             "  initial $readmemh(\"vsim_readmem_oob.hex\","
                             " rom);\n"
                             "endmodule\n",
                             "m");
  ASSERT_NE(model, nullptr);
  vsim::Simulation sim(model);
  sim.settle();
  EXPECT_FALSE(sim.ok());
  EXPECT_EQ(static_cast<int>(sim.verdict().kind),
            static_cast<int>(guard::Kind::IoError));
  EXPECT_TRUE(contains(sim.error(), "out of range")) << sim.error();
  auto cells = sim.memoryContents("rom");
  ASSERT_EQ(cells.size(), 16u);
  EXPECT_EQ(cells[0].toUint64(), 0xdeu); // parsed prefix survives
  EXPECT_EQ(cells[1].toUint64(), 0xadu);
  EXPECT_EQ(cells[15].toUint64(), 0u);   // nothing clamped onto the end

  std::string why;
  auto compiled = vsim::compileModel(model, why);
  ASSERT_NE(compiled, nullptr) << why; // still compiles; the *run* fails
  vsim::CompiledSimulation vm(compiled);
  vm.settle();
  EXPECT_FALSE(vm.ok());
  EXPECT_EQ(static_cast<int>(vm.verdict().kind),
            static_cast<int>(guard::Kind::IoError));
  EXPECT_TRUE(contains(vm.error(), "out of range")) << vm.error();
  std::remove(path);
}

TEST(VsimSim, ReadMemUnknownMemoryIsAnElabError) {
  vsim::ParseDiagnostic diag;
  auto unit = vsim::parseVerilog("module m;\n"
                                 "  reg [7:0] rom [0:3];\n"
                                 "  initial $readmemh(\"f.hex\", nope);\n"
                                 "endmodule\n",
                                 diag);
  ASSERT_TRUE(diag.ok()) << diag.str();
  std::string err;
  auto model = vsim::elaborate(unit, "m", err);
  EXPECT_EQ(model, nullptr);
  EXPECT_TRUE(contains(err, "unknown memory")) << err;
}

TEST(VsimSim, ReadMemInjectedIoFaultSurfacesAsVerdict) {
  const char *path = "vsim_readmem_inj.hex";
  {
    std::ofstream out(path);
    out << "00\n";
  }
  auto model = mustElaborate("module m;\n"
                             "  reg [7:0] rom [0:3];\n"
                             "  initial $readmemh(\"vsim_readmem_inj.hex\","
                             " rom);\n"
                             "endmodule\n",
                             "m");
  ASSERT_NE(model, nullptr);
  guard::armFault("guard.io.read");
  vsim::Simulation sim(model);
  sim.settle();
  guard::disarmFaults();
  EXPECT_FALSE(sim.ok());
  EXPECT_EQ(static_cast<int>(sim.verdict().kind),
            static_cast<int>(guard::Kind::InjectedFault));
  std::remove(path);
}

TEST(VsimCosim, SeededGlobalsRoundTrip) {
  // Cosimulation::seedGlobal is the vsim analogue of Simulator::writeGlobal;
  // histogram checks globals, so drive it through the full path.
  const core::Workload &w = core::findWorkload("histogram");
  auto r = flows::runFlow(*flows::findFlow("bachc"), w.source, w.top);
  if (!r.ok || !r.design)
    GTEST_SKIP() << "bachc did not build histogram";
  core::CosimVerification cv = core::cosimAgainstGoldenModel(w, r);
  EXPECT_TRUE(cv.ran);
  EXPECT_TRUE(cv.ok) << cv.detail;
}

// --------------------------------------------------------------------------
// The engine ladder: every vsim entry point takes the one selectEngine
// decision, so each (engine, fault) pair behaves the same through all three
// --------------------------------------------------------------------------

// What one run reports about the ladder.  `ok` also requires the right
// answer.  A field an entry point does not report stays unset and is not
// compared.
struct LadderRun {
  bool ok = false;
  std::string error;
  vsim::SimEngine backend = vsim::SimEngine::Event;
  std::optional<guard::Kind> verdict;
  std::optional<std::string> fallback;
};

struct LadderDesign {
  TbRun tb = buildGcd();
  std::string top = "c2h_" + rtl::verilogIdent(tb.flow.design->top);
  std::string text = rtl::emitVerilog(*tb.flow.design);
};

using LadderEntryPoint =
    std::function<LadderRun(const LadderDesign &, vsim::SimEngine)>;

bool returnsGolden(const vsim::CosimResult &r, const LadderDesign &d) {
  return r.ok && r.returnValue.resize(32, false).toStringHex() ==
                     d.tb.golden.resize(32, false).toStringHex();
}

const std::vector<std::pair<std::string, LadderEntryPoint>> kLadderEntries = {
    {"Cosimulation::run",
     [](const LadderDesign &d, vsim::SimEngine engine) {
       vsim::Cosimulation cosim(*d.tb.flow.design);
       vsim::CosimOptions opts;
       opts.engine = engine;
       vsim::CosimResult r = cosim.run(d.tb.args, opts);
       return LadderRun{returnsGolden(r, d), r.error, r.engine,
                        r.verdict.kind, cosim.compileNote()};
     }},
    {"cosimulateSource",
     [](const LadderDesign &d, vsim::SimEngine engine) {
       vsim::CosimOptions opts;
       opts.engine = engine;
       vsim::CosimResult r =
           vsim::cosimulateSource(d.text, d.top, d.tb.args, opts);
       return LadderRun{returnsGolden(r, d), r.error, r.engine,
                        r.verdict.kind, std::nullopt};
     }},
    {"runTestbench",
     [](const LadderDesign &d, vsim::SimEngine engine) {
       std::string src = d.text + "\n" +
                         rtl::emitTestbench(*d.tb.flow.design, d.tb.args,
                                            d.tb.golden);
       std::string note;
       vsim::TestbenchResult r =
           vsim::runTestbench(src, "c2h_main_tb", 20'000'000, engine, &note);
       bool ok = r.error.empty() && r.finished && !r.output.empty() &&
                 contains(r.output.front(), "PASS");
       return LadderRun{ok, r.error, r.engine, std::nullopt, note};
     }},
};

// The ladder's rule: compile unless Event was asked for; a refused compile
// falls back to the event engine with the reason recorded, or is an error
// under CompiledStrict.
LadderRun expectedLadderRun(vsim::SimEngine engine, bool compileFaulted) {
  guard::Verdict fault;
  fault.kind = guard::Kind::InjectedFault;
  fault.stage = fault.site = "vsim.compile";
  const bool compiles = engine != vsim::SimEngine::Event;
  LadderRun run;
  run.verdict = guard::Kind::None;
  run.fallback = compiles && compileFaulted ? fault.str() : "";
  if (engine == vsim::SimEngine::CompiledStrict && compileFaulted) {
    run.error = "vsim: compiled-strict: " + fault.str();
    run.verdict = guard::Kind::InjectedFault;
    return run;
  }
  run.ok = true;
  if (compiles && !compileFaulted)
    run.backend = vsim::SimEngine::Compiled;
  return run;
}

TEST(VsimEngineLadder, EveryEntryPointTakesTheSameRung) {
  LadderDesign d;
  ASSERT_TRUE(d.tb.flow.ok);
  for (const auto &[entryName, entry] : kLadderEntries)
    for (vsim::SimEngine engine :
         {vsim::SimEngine::Event, vsim::SimEngine::Compiled,
          vsim::SimEngine::CompiledStrict})
      for (bool compileFaulted : {false, true}) {
        SCOPED_TRACE(entryName + " engine=" +
                     std::string(vsim::engineName(engine)) +
                     (compileFaulted ? " vsim.compile armed" : " clean"));
        if (compileFaulted)
          guard::armFault("vsim.compile");
        LadderRun got = entry(d, engine);
        guard::disarmFaults();
        LadderRun want = expectedLadderRun(engine, compileFaulted);
        EXPECT_EQ(got.ok, want.ok);
        EXPECT_EQ(got.error, want.error);
        EXPECT_EQ(vsim::engineName(got.backend),
                  vsim::engineName(want.backend));
        if (got.verdict) {
          EXPECT_EQ(guard::kindName(*got.verdict),
                    guard::kindName(*want.verdict));
        }
        if (got.fallback) {
          EXPECT_EQ(*got.fallback, *want.fallback);
        }
      }
}

// A guard trip in the middle of a compiled run retries once on the event
// engine and records the compiled engine's failure, through the
// text-driven entry point as well; CompiledStrict surfaces the trip as-is.
TEST(VsimEngineLadder, MidRunCycleLimitRetriesOnEventEngine) {
  LadderDesign d;
  ASSERT_TRUE(d.tb.flow.ok);
  std::string text = d.text;
  std::size_t pos = text.find("done <= 1'b1");
  ASSERT_NE(pos, std::string::npos);
  text.replace(pos, std::string("done <= 1'b1").size(), "done <= 1'b0");
  const std::string trip =
      "vsim: cycle budget exceeded (1000 cycles without done)";
  vsim::CosimOptions opts;
  opts.maxCycles = 1'000;

  opts.engine = vsim::SimEngine::Compiled;
  vsim::CosimResult c = vsim::cosimulateSource(text, d.top, d.tb.args, opts);
  EXPECT_FALSE(c.ok);
  EXPECT_EQ(c.error, trip);
  EXPECT_EQ(c.verdict.kind, guard::Kind::CycleLimit);
  EXPECT_EQ(c.engine, vsim::SimEngine::Event);
  EXPECT_EQ(c.degradation,
            "compiled engine: " + trip + "; retried on event engine");

  opts.engine = vsim::SimEngine::CompiledStrict;
  vsim::CosimResult s = vsim::cosimulateSource(text, d.top, d.tb.args, opts);
  EXPECT_FALSE(s.ok);
  EXPECT_EQ(s.error, trip);
  EXPECT_EQ(s.verdict.kind, guard::Kind::CycleLimit);
  EXPECT_EQ(s.engine, vsim::SimEngine::Compiled);
  EXPECT_EQ(s.degradation, "");
}

// One table names the engines on every surface: each engine round-trips
// through it, and nothing else parses.
TEST(VsimEngineLadder, EngineNamesRoundTrip) {
  const vsim::SimEngine engines[] = {vsim::SimEngine::Event,
                                     vsim::SimEngine::Compiled,
                                     vsim::SimEngine::CompiledStrict};
  EXPECT_EQ(std::size(vsim::kSimEngineNames), std::size(engines));
  for (vsim::SimEngine engine : engines) {
    std::string_view name = vsim::engineName(engine);
    ASSERT_FALSE(name.empty());
    EXPECT_EQ(vsim::parseEngine(name), engine) << name;
  }
  EXPECT_EQ(vsim::engineName(vsim::SimEngine::Event), "event");
  EXPECT_EQ(vsim::engineName(vsim::SimEngine::Compiled), "compiled");
  EXPECT_EQ(vsim::engineName(vsim::SimEngine::CompiledStrict),
            "compiled-strict");
  for (const char *unknown :
       {"", "native", "Event", "compiled-", "strict", "event "})
    EXPECT_FALSE(vsim::parseEngine(unknown).has_value()) << unknown;
}

} // namespace
} // namespace c2h
