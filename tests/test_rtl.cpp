// RTL layer tests: FSMD construction, the cycle-accurate simulator
// (including channels, fork/join, calls, multi-cycle ops), area/timing
// reports, Verilog emission — and the keystone three-way parity check:
// AST interpreter == IR executor == RTL simulation.
#include "core/c2h.h"
#include "frontend/sema.h"
#include "ir/builder.h"
#include "interp/interp.h"
#include "ir/exec.h"
#include "ir/lower.h"
#include "opt/inline.h"
#include "opt/irpasses.h"
#include "opt/unroll.h"
#include "rtl/report.h"
#include "rtl/sim.h"
#include "rtl/verilog.h"

#include <gtest/gtest.h>

namespace c2h {
namespace {

struct World {
  TypeContext types;
  DiagnosticEngine diags;
  std::unique_ptr<ast::Program> ast;
  std::unique_ptr<ir::Module> module;
  std::unique_ptr<rtl::Design> design;
  sched::TechLibrary lib;
};

std::unique_ptr<World> build(const std::string &src, const std::string &top,
                             sched::SchedOptions options = {},
                             bool inlineCalls = false) {
  auto w = std::make_unique<World>();
  w->ast = frontend(src, w->types, w->diags);
  EXPECT_NE(w->ast, nullptr) << w->diags.str();
  if (!w->ast)
    return w;
  if (inlineCalls) {
    opt::inlineFunctions(*w->ast, w->types, w->diags);
    opt::removeUnusedFunctions(*w->ast, top);
  }
  w->module = ir::lowerToIR(*w->ast, w->diags);
  EXPECT_NE(w->module, nullptr) << w->diags.str();
  if (!w->module)
    return w;
  opt::optimizeModule(*w->module);
  w->design = std::make_unique<rtl::Design>(
      rtl::buildDesign(*w->module, top, w->lib, options));
  return w;
}

// ---------------------------------------------------------------------------
// FSMD structure
// ---------------------------------------------------------------------------

TEST(Fsmd, StatesCoverEveryBlockStep) {
  auto w = build("int f(int a) { int s = 0; for (int i = 0; i < a; i = i+1) "
                 "{ s = s + i; } return s; }",
                 "f");
  const ir::Function *f = w->module->findFunction("f");
  const rtl::FsmdProcess *proc = w->design->processFor(f);
  ASSERT_NE(proc, nullptr);
  unsigned total = 0;
  for (const auto &[block, fb] : proc->blocks) {
    EXPECT_GE(fb.length, 1u);
    total += fb.length;
  }
  EXPECT_EQ(total, proc->stateCount);
}

TEST(Fsmd, ViolationsPropagate) {
  sched::SchedOptions fast;
  fast.clockNs = 0.5;
  auto w = build(
      "int f(int a) { int r; constraint(0, 1) { r = ((a*a)*a)*a; } return r; }",
      "f", fast);
  EXPECT_FALSE(w->design->violations.empty());
}

// ---------------------------------------------------------------------------
// Simulation basics
// ---------------------------------------------------------------------------

std::int64_t simRun(World &w, std::vector<std::int64_t> args,
                    std::uint64_t *cycles = nullptr) {
  rtl::Simulator sim(*w.design);
  std::vector<BitVector> bv;
  const ir::Function *f = w.module->findFunction(w.design->top);
  for (std::size_t i = 0; i < args.size(); ++i)
    bv.push_back(BitVector::fromInt(f->params()[i].width, args[i]));
  auto r = sim.run(bv);
  EXPECT_TRUE(r.ok) << r.error;
  if (cycles)
    *cycles = r.cycles;
  return r.ok ? r.returnValue.resize(64, true).toInt64() : -999999;
}

TEST(RtlSim, StraightLineArithmetic) {
  auto w = build("int f(int a, int b) { return (a + b) * (a - b); }", "f");
  EXPECT_EQ(simRun(*w, {7, 3}), (7 + 3) * (7 - 3));
}

TEST(RtlSim, LoopsAndMemories) {
  auto w = build(R"(
    int hist[8];
    int f(int n) {
      int s = 0;
      for (int i = 0; i < n; i = i + 1) {
        hist[i & 7] = hist[i & 7] + 1;
        s = s + i;
      }
      return s;
    })",
                 "f");
  std::uint64_t cycles = 0;
  EXPECT_EQ(simRun(*w, {10}, &cycles), 45);
  EXPECT_GT(cycles, 10u);
  rtl::Simulator sim(*w->design);
  sim.run({BitVector(32, 16)});
  auto hist = sim.readGlobal("hist");
  ASSERT_EQ(hist.size(), 8u);
  for (auto &h : hist)
    EXPECT_EQ(h.toUint64(), 2u);
}

TEST(RtlSim, MultiCycleDivider) {
  auto w = build("int f(int a, int b) { return a / b + a % b; }", "f");
  std::uint64_t cycles = 0;
  EXPECT_EQ(simRun(*w, {1000, 33}, &cycles), 1000 / 33 + 1000 % 33);
  // The divider is multi-cycle: more than a couple of cycles total.
  EXPECT_GT(cycles, 4u);
}

TEST(RtlSim, FunctionCallHandshake) {
  auto w = build("int sq(int x) { return x * x; }\n"
                 "int f(int a) { return sq(a) + sq(a + 1); }",
                 "f");
  EXPECT_EQ(simRun(*w, {5}), 25 + 36);
}

TEST(RtlSim, RecursionViaNestedActivations) {
  auto w = build("int fib(int n) { if (n < 2) { return n; } "
                 "return fib(n - 1) + fib(n - 2); }",
                 "fib");
  EXPECT_EQ(simRun(*w, {10}), 55);
}

TEST(RtlSim, ParForkJoin) {
  auto w = build(R"(
    int x; int y;
    int f(int a) {
      par { x = a + 1; y = a * 2; }
      return x + y;
    })",
                 "f");
  EXPECT_EQ(simRun(*w, {10}), 11 + 20);
}

TEST(RtlSim, ChannelRendezvous) {
  auto w = build(R"(
    chan<int> c;
    int got;
    int f() {
      par {
        c ! 41;
        { int t; c ? t; got = t + 1; }
      }
      return got;
    })",
                 "f");
  EXPECT_EQ(simRun(*w, {}), 42);
}

TEST(RtlSim, ProducerConsumerPipelineThroughput) {
  auto w = build(R"(
    chan<int> c;
    int out[16];
    void producer() { for (int i = 0; i < 16; i = i + 1) { c ! i * 3; } }
    void consumer() { for (int i = 0; i < 16; i = i + 1)
      { int v; c ? v; out[i] = v; } }
    void f() { par { producer(); consumer(); } }
  )",
                 "f", {}, true);
  ASSERT_FALSE(w->diags.hasErrors()) << w->diags.str();
  rtl::Simulator sim(*w->design);
  auto r = sim.run({});
  ASSERT_TRUE(r.ok) << r.error;
  auto out = sim.readGlobal("out");
  for (int i = 0; i < 16; ++i)
    EXPECT_EQ(out[i].toInt64(), i * 3);
}

TEST(RtlSim, ChannelDeadlockDetected) {
  auto w = build("chan<int> c;\nint f() { c ! 1; return 0; }", "f");
  rtl::SimOptions so;
  so.stallLimit = 100;
  rtl::Simulator sim(*w->design, so);
  auto r = sim.run({});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("deadlock"), std::string::npos);
}

TEST(RtlSim, CycleBudgetEnforced) {
  auto w = build("int f() { while (true) { } return 0; }", "f");
  rtl::SimOptions so;
  so.maxCycles = 500;
  rtl::Simulator sim(*w->design, so);
  auto r = sim.run({});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("budget"), std::string::npos);
}

TEST(RtlSim, WriteGlobalSeedsInput) {
  auto w = build(R"(
    int data[4];
    int f() { return data[0] + data[1] + data[2] + data[3]; }
  )",
                 "f");
  rtl::Simulator sim(*w->design);
  sim.writeGlobal("data", {BitVector(32, 5), BitVector(32, 6),
                           BitVector(32, 7), BitVector(32, 8)});
  auto r = sim.run({});
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.returnValue.toUint64(), 26u);
}

TEST(RtlSim, DelayAddsCycles) {
  auto w0 = build("int f(int a) { return a + 1; }", "f");
  auto w1 = build("int f(int a) { delay(10); return a + 1; }", "f");
  std::uint64_t c0 = 0, c1 = 0;
  simRun(*w0, {1}, &c0);
  simRun(*w1, {1}, &c1);
  EXPECT_GE(c1, c0 + 10);
}

// A delay longer than the stall limit is a wait for a known cycle, not a
// deadlock: every flow that accepts delay() verifies it, and the FSMD
// simulator's cycle count equals vsim's.
TEST(RtlSim, LongDelayIsNotADeadlock) {
  core::Workload wl;
  wl.name = "long_delay";
  wl.source = "int main(int x) { int s = x; delay(20000); return s + 1; }";
  wl.top = "main";
  wl.args = {3};
  unsigned accepted = 0;
  for (const auto &flow : flows::allFlows()) {
    flows::FlowResult r = flows::runFlow(flow, wl.source, wl.top);
    if (!r.accepted || !r.design)
      continue;
    ++accepted;
    ASSERT_TRUE(r.ok) << flow.info.id << ": " << r.error;
    core::Verification v = core::verifyAgainstGoldenModel(wl, r);
    EXPECT_TRUE(v.ok) << flow.info.id << ": " << v.detail;
    EXPECT_GT(v.cycles, rtl::SimOptions{}.stallLimit) << flow.info.id;
    EXPECT_EQ(v.returnValue.toInt64(), 4) << flow.info.id;
    core::CosimVerification c = core::cosimAgainstGoldenModel(wl, r);
    EXPECT_TRUE(c.ok) << flow.info.id << ": " << c.detail;
    EXPECT_EQ(c.cycles, v.cycles) << flow.info.id;
  }
  EXPECT_GE(accepted, 1u);
}

// Each loop iteration forks two par branches that join before the next
// one (tests/fixtures/par_loop.uc at N = 20000).  Only running processes
// are stepped, so the steps per run grow linearly with the cycles; every
// process ever forked used to be stepped on every later cycle, about
// N / 2 steps per cycle.
TEST(RtlSim, ParLoopStepsGrowLinearly) {
  for (unsigned n : {500u, 1000u, 2000u, 4000u}) {
    auto w = build("int b[1]; int c[1];\n"
                   "int main(int x) {\n"
                   "  for (int i = 0; i < " + std::to_string(n) +
                       "; i = i + 1) {\n"
                   "    par { b[0] = b[0] + x; c[0] = c[0] + i; }\n"
                   "  }\n"
                   "  return b[0] + c[0];\n"
                   "}\n",
                   "main");
    ASSERT_NE(w->design, nullptr) << n;
    const std::uint64_t before = rtl::activationSteps();
    std::uint64_t cycles = 0;
    EXPECT_EQ(simRun(*w, {3}, &cycles),
              3 * static_cast<std::int64_t>(n) +
                  static_cast<std::int64_t>(n) * (n - 1) / 2)
        << n;
    const std::uint64_t steps = rtl::activationSteps() - before;
    RecordProperty("cycles_" + std::to_string(n), std::to_string(cycles));
    RecordProperty("steps_" + std::to_string(n), std::to_string(steps));
    // The parent and its two branches: at most three steps a cycle.
    EXPECT_LE(steps, 3 * cycles) << "N = " << n;
    EXPECT_GE(cycles, 2u * n) << "N = " << n;
  }
}

// The decoded datapath at its edges, in the style of
// VsimCompiled.WordOpsMatchEventEngine: every datapath opcode, alone in a
// function over parameters (and again with an immediate right operand),
// must return exactly what IRExecutor::evalOp computes — value and width —
// at 1, 33, 64 (the word path) and 65 bits (evalOp itself).  Operands cover
// zero, one, the most negative value and its neighbours, all ones and a
// scrambled pattern, so division and remainder by zero, INT_MIN / -1,
// shift amounts at and past the width and signed shifts all occur.
TEST(RtlSim, DecodedDatapathMatchesEvalOp) {
  using ir::Opcode;
  auto pattern = [](unsigned w, std::uint64_t low) {
    BitVector v(w, low);
    return w > 64 ? v.bitOr(BitVector(w, 1).shl(64)) : v;
  };
  auto operands = [&](unsigned w) {
    BitVector min = BitVector(w, 1).shl(w - 1);
    return std::vector<BitVector>{BitVector(w),
                                  BitVector(w, 1),
                                  BitVector(w, 7),
                                  min,
                                  min.add(BitVector(w, 1)),
                                  min.sub(BitVector(w, 1)),
                                  BitVector::allOnes(w),
                                  pattern(w, 0x9E3779B97F4A7C15ull)};
  };
  auto amounts = [](unsigned w) {
    std::vector<BitVector> out;
    for (std::uint64_t a : {0ull, 1ull, 7ull, 31ull, 32ull, 63ull, 64ull,
                            65ull, 200ull, ~0ull})
      out.push_back(BitVector(w, a));
    out.push_back(BitVector::allOnes(w));
    return out;
  };
  struct Case {
    Opcode op;
    unsigned arity;
  };
  const Case cases[] = {
      {Opcode::Copy, 1},   {Opcode::Add, 2},    {Opcode::Sub, 2},
      {Opcode::Mul, 2},    {Opcode::DivS, 2},   {Opcode::DivU, 2},
      {Opcode::RemS, 2},   {Opcode::RemU, 2},   {Opcode::And, 2},
      {Opcode::Or, 2},     {Opcode::Xor, 2},    {Opcode::Not, 1},
      {Opcode::Neg, 1},    {Opcode::Shl, 2},    {Opcode::ShrL, 2},
      {Opcode::ShrA, 2},   {Opcode::CmpEq, 2},  {Opcode::CmpNe, 2},
      {Opcode::CmpLtS, 2}, {Opcode::CmpLtU, 2}, {Opcode::CmpLeS, 2},
      {Opcode::CmpLeU, 2}, {Opcode::Mux, 3},    {Opcode::Trunc, 1},
      {Opcode::ZExt, 1},   {Opcode::SExt, 1}};
  sched::TechLibrary lib;
  unsigned checked = 0, mismatches = 0;
  std::string first;
  for (unsigned w : {1u, 33u, 64u, 65u}) {
    for (const Case &tc : cases) {
      const bool shift = tc.op == Opcode::Shl || tc.op == Opcode::ShrL ||
                         tc.op == Opcode::ShrA;
      std::vector<unsigned> dstWidths = {w};
      if (tc.op == Opcode::CmpEq || tc.op == Opcode::CmpNe ||
          tc.op == Opcode::CmpLtS || tc.op == Opcode::CmpLtU ||
          tc.op == Opcode::CmpLeS || tc.op == Opcode::CmpLeU)
        dstWidths = {1};
      if (tc.op == Opcode::Trunc)
        dstWidths = w > 1 ? std::vector<unsigned>{1, w - 1}
                          : std::vector<unsigned>{1};
      if (tc.op == Opcode::ZExt || tc.op == Opcode::SExt)
        dstWidths = w < 64 ? std::vector<unsigned>{w + 7, 64}
                           : std::vector<unsigned>{w + 7};
      const std::vector<BitVector> xs = operands(w);
      const std::vector<BitVector> ys = shift ? amounts(w) : operands(w);
      for (unsigned dstWidth : dstWidths) {
        // immediateRhs: the last operand is an immediate, not a parameter.
        for (bool immediateRhs : {false, true}) {
          if (tc.arity == 1 && immediateRhs)
            continue;
          for (const BitVector &fixed : immediateRhs ? ys
                                                     : std::vector<BitVector>{
                                                           BitVector(1)}) {
            ir::Module m;
            ir::Function *f = m.addFunction("f", dstWidth);
            std::vector<ir::Operand> ops;
            if (tc.op == Opcode::Mux) {
              ir::VReg cond = f->newVReg(1);
              f->params().push_back(cond);
              ops.push_back(cond);
            }
            ir::VReg x = f->newVReg(w);
            f->params().push_back(x);
            ops.push_back(x);
            if (tc.arity >= 2) {
              if (immediateRhs) {
                ops.push_back(fixed);
              } else {
                ir::VReg y = f->newVReg(w);
                f->params().push_back(y);
                ops.push_back(y);
              }
            }
            ir::Builder b(*f);
            b.setInsertPoint(f->newBlock("entry"));
            auto instr = std::make_unique<ir::Instr>();
            instr->op = tc.op;
            instr->dst = f->newVReg(dstWidth);
            instr->operands = ops;
            ir::VReg result = *b.emit(std::move(instr))->dst;
            b.emitRet(result);
            ASSERT_TRUE(ir::verify(m).empty()) << ir::opcodeName(tc.op);
            rtl::Design design = rtl::buildDesign(m, "f", lib, {});
            rtl::Simulator sim(design);
            for (unsigned cond = 0; cond < (tc.op == Opcode::Mux ? 2u : 1u);
                 ++cond) {
              for (const BitVector &xv : xs) {
                for (std::size_t j = 0;
                     j < (tc.arity >= 2 && !immediateRhs ? ys.size() : 1);
                     ++j) {
                  std::vector<BitVector> args, evalArgs;
                  if (tc.op == Opcode::Mux) {
                    args.push_back(BitVector(1, cond));
                    evalArgs.push_back(BitVector(1, cond));
                  }
                  args.push_back(xv);
                  evalArgs.push_back(xv);
                  if (tc.arity >= 2) {
                    const BitVector &yv = immediateRhs ? fixed : ys[j];
                    if (!immediateRhs)
                      args.push_back(yv);
                    evalArgs.push_back(yv);
                  }
                  BitVector want =
                      ir::IRExecutor::evalOp(tc.op, evalArgs, dstWidth);
                  rtl::SimResult r = sim.run(args);
                  ASSERT_TRUE(r.ok) << r.error;
                  ++checked;
                  if (r.returnValue.width() != want.width() ||
                      r.returnValue != want) {
                    if (mismatches++ == 0)
                      first = std::string(ir::opcodeName(tc.op)) + " at " +
                              std::to_string(w) + " bits, x = " +
                              xv.toStringHex() + ": got " +
                              r.returnValue.toStringHex() + " (" +
                              std::to_string(r.returnValue.width()) +
                              " bits), want " + want.toStringHex() + " (" +
                              std::to_string(want.width()) + " bits)";
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u) << "first: " << first;
  EXPECT_GT(checked, 10000u);
}

// ---------------------------------------------------------------------------
// Timing-policy cycle counts
// ---------------------------------------------------------------------------

TEST(RtlSim, HandelCRuleCostsOneCyclePerAssignment) {
  const char *src = "int x; int y; int z;\n"
                    "void f(int a) { x = a; y = a + 1; z = a + 2; }";
  sched::SchedOptions handel;
  handel.serializeWrites = true;
  handel.resources.memPortsPerMem = 0;
  sched::SchedOptions bach;
  bach.resources.memPortsPerMem = 0;
  auto wh = build(src, "f", handel);
  auto wb = build(src, "f", bach);
  std::uint64_t ch = 0, cb = 0;
  simRun(*wh, {3}, &ch);
  simRun(*wb, {3}, &cb);
  EXPECT_GT(ch, cb); // Handel-C pays a cycle per assignment
  // Results identical regardless of the timing model.
  rtl::Simulator sh(*wh->design), sb(*wb->design);
  sh.run({BitVector(32, 3)});
  sb.run({BitVector(32, 3)});
  EXPECT_EQ(sh.readGlobal("z")[0].toInt64(), 5);
  EXPECT_EQ(sb.readGlobal("z")[0].toInt64(), 5);
}

TEST(RtlSim, TransmogrifierRuleChargesPerIteration) {
  const char *src = R"(
    int acc;
    void f(int n) {
      acc = 0;
      for (int i = 0; i < n; i = i + 1) { acc = acc + i * 3 + 1; }
    })";
  sched::SchedOptions tmog;
  tmog.clockNs = 1e9;
  tmog.asyncMemory = true;
  auto w = build(src, "f", tmog);
  std::uint64_t c8 = 0, c16 = 0;
  simRun(*w, {8}, &c8);
  simRun(*w, {16}, &c16);
  // Cycles grow linearly with the iteration count, small constant factor.
  EXPECT_GT(c16, c8);
  EXPECT_LE(c16 - c8, 8 * 3 + 4u);
  rtl::Simulator sim(*w->design);
  sim.run({BitVector(32, 5)});
  EXPECT_EQ(sim.readGlobal("acc")[0].toInt64(), 0 + 1 + 4 + 7 + 10 + 13);
}

// ---------------------------------------------------------------------------
// Three-way parity (interpreter == IR executor == RTL simulation)
// ---------------------------------------------------------------------------

struct ParityCase {
  const char *name;
  const char *source;
  const char *fn;
  std::vector<std::vector<std::int64_t>> argSets;
  std::vector<const char *> globals;
};

// gtest names each case after its printed value; print the case name so the
// name does not embed pointer bytes that change from build to build.
void PrintTo(const ParityCase &c, std::ostream *os) { *os << c.name; }

class RtlParity : public ::testing::TestWithParam<ParityCase> {};

TEST_P(RtlParity, AllThreeLevelsAgree) {
  const ParityCase &tc = GetParam();
  for (sched::SchedOptions options :
       {sched::SchedOptions{}, [] {
          sched::SchedOptions o;
          o.clockNs = 0.8; // fast clock: more states, multi-cycle ops
          o.resources.limits[sched::FuClass::Alu] = 1;
          o.resources.limits[sched::FuClass::Mult] = 1;
          return o;
        }()}) {
    auto w = build(tc.source, tc.fn, options);
    ASSERT_NE(w->design, nullptr);
    const ast::FuncDecl *fd = w->ast->findFunction(tc.fn);
    for (const auto &args : tc.argSets) {
      std::vector<BitVector> bv;
      for (std::size_t i = 0; i < args.size(); ++i)
        bv.push_back(BitVector::fromInt(fd->params[i]->type->bitWidth(),
                                        args[i]));
      bool concurrent = analyzeFeatures(*w->ast).has(Feature::ParBlocks);
      Interpreter interp(*w->ast);
      ir::IRExecutor exec(*w->module);
      rtl::Simulator sim(*w->design);
      auto r0 = interp.call(tc.fn, bv);
      auto r2 = sim.run(bv);
      ASSERT_TRUE(r0.ok) << r0.error;
      ASSERT_TRUE(r2.ok) << r2.error;
      ir::ExecResult r1;
      if (!concurrent) { // the IR executor is sequential-only by design
        r1 = exec.call(tc.fn, bv);
        ASSERT_TRUE(r1.ok) << r1.error;
      }
      if (!fd->returnType->isVoid()) {
        unsigned width = fd->returnType->bitWidth();
        if (!concurrent) {
          EXPECT_EQ(r0.returnValue.toStringHex(),
                    r1.returnValue.resize(width, false).toStringHex())
              << tc.name;
        }
        EXPECT_EQ(r0.returnValue.toStringHex(),
                  r2.returnValue.resize(width, false).toStringHex())
            << tc.name;
      }
      for (const char *g : tc.globals) {
        auto g0 = interp.readGlobal(g);
        auto g2 = sim.readGlobal(g);
        ASSERT_EQ(g0.size(), g2.size());
        for (std::size_t i = 0; i < g0.size(); ++i)
          EXPECT_EQ(g0[i].toStringHex(), g2[i].toStringHex())
              << tc.name << ":" << g << "[" << i << "]";
      }
    }
  }
}

const ParityCase kCases[] = {
    {"collatz",
     "int f(int n) { int steps = 0; while (n != 1) { "
     "if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; } "
     "steps = steps + 1; } return steps; }",
     "f", {{6}, {27}}, {}},
    {"crc8",
     "uint<8> f(uint<8> data) { uint<8> crc = data; "
     "for (int i = 0; i < 8; i = i + 1) { "
     "if ((crc & 0x80) != 0) { crc = (crc << 1) ^ 0x07; } "
     "else { crc = crc << 1; } } return crc; }",
     "f", {{0x31}, {0xFF}, {0}}, {}},
    {"matmul2",
     "int a[2][2] = {1, 2, 3, 4};\nint b[2][2] = {5, 6, 7, 8};\n"
     "int c[2][2];\n"
     "void f() { for (int i = 0; i < 2; i = i + 1) "
     "for (int j = 0; j < 2; j = j + 1) { int s = 0; "
     "for (int k = 0; k < 2; k = k + 1) { s = s + a[i][k] * b[k][j]; } "
     "c[i][j] = s; } }",
     "f", {{}}, {"c"}},
    {"bubbleSort",
     "int v[8] = {7, 2, 9, 1, 8, 0, 5, 3};\n"
     "void f() { for (int i = 0; i < 8; i = i + 1) "
     "for (int j = 0; j + 1 < 8 - i; j = j + 1) "
     "if (v[j] > v[j + 1]) { int t = v[j]; v[j] = v[j + 1]; v[j + 1] = t; } }",
     "f", {{}}, {"v"}},
    {"narrowTypes",
     "uint<12> f(uint<12> a, int<6> b) { "
     "return (a * (uint<12>)b) ^ (a >> 3); }",
     "f", {{100, 17}, {4095, -32}}, {}},
    {"pointerChase",
     "int f(int a) { int buf[4] = {3, 1, 4, 1}; int *p = &buf[0]; "
     "int s = 0; for (int i = 0; i < 4; i = i + 1) { s = s + *p; p = p + 1; } "
     "return s + a; }",
     "f", {{10}}, {}},
    {"sharedState",
     "int turn;\nint log[6];\n"
     "void f() { int k = 0; par { { log[0] = 1; } { log[1] = 2; } "
     "{ log[2] = 3; } } log[3] = 4; }",
     "f", {{}}, {"log"}},
};

INSTANTIATE_TEST_SUITE_P(
    Programs, RtlParity, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<ParityCase> &info) {
      return std::string(info.param.name);
    });

// ---------------------------------------------------------------------------
// Reports and Verilog
// ---------------------------------------------------------------------------

TEST(Report, AreaGrowsWithUnrolledParallelism) {
  const char *rolled = R"(
    int x[16]; int y[16];
    void f() { for (int i = 0; i < 16; i = i + 1) { y[i] = x[i] * 3 + 1; } })";
  const char *unrolled = R"(
    int x[16]; int y[16];
    void f() { unroll for (int i = 0; i < 16; i = i + 1) { y[i] = x[i] * 3 + 1; } })";
  auto wr = build(rolled, "f");
  auto wu = [&] {
    auto w = std::make_unique<World>();
    w->ast = frontend(unrolled, w->types, w->diags);
    opt::UnrollOptions uo;
    opt::unrollLoops(*w->ast, w->diags, uo);
    w->module = ir::lowerToIR(*w->ast, w->diags);
    opt::optimizeModule(*w->module);
    sched::SchedOptions o;
    o.resources.memPortsPerMem = 2;
    w->design = std::make_unique<rtl::Design>(
        rtl::buildDesign(*w->module, "f", w->lib, o));
    return w;
  }();
  auto ar = rtl::estimateArea(*wr->design, wr->lib);
  auto au = rtl::estimateArea(*wu->design, wu->lib);
  EXPECT_GT(au.total(), ar.total());
}

TEST(Report, TimingReflectsChaining) {
  const char *src = "int f(int a) { return ((a + 1) + 2) + 3; }";
  sched::SchedOptions slow;
  slow.clockNs = 50.0;
  sched::SchedOptions fast;
  fast.clockNs = 0.6;
  auto ws = build(src, "f", slow);
  auto wf = build(src, "f", fast);
  auto ts = rtl::estimateTiming(*ws->design, ws->lib);
  auto tf = rtl::estimateTiming(*wf->design, wf->lib);
  // Longer chains in one cycle => longer critical path.
  EXPECT_GE(ts.criticalPathNs, tf.criticalPathNs);
  EXPECT_GT(ts.states, 0u);
}

TEST(Verilog, EmitsPlausibleModule) {
  auto w = build(R"(
    const int k[4] = {1, 2, 3, 4};
    chan<int> c;
    int f(int a) {
      int s = k[a & 3];
      par { c ! 5; { int t; c ? t; s = s + t; } }
      return s;
    })",
                 "f");
  std::string v = rtl::emitVerilog(*w->design);
  EXPECT_NE(v.find("module c2h_f"), std::string::npos);
  EXPECT_NE(v.find("endmodule"), std::string::npos);
  EXPECT_NE(v.find("always @(posedge clk)"), std::string::npos);
  EXPECT_NE(v.find("mem_k"), std::string::npos);
  EXPECT_NE(v.find("chan_0_valid"), std::string::npos);
  EXPECT_NE(v.find("case ("), std::string::npos);
  // Balanced begin/end pairs (crude syntax sanity).
  std::size_t begins = 0, ends = 0, pos = 0;
  while ((pos = v.find("begin", pos)) != std::string::npos)
    ++begins, pos += 5;
  pos = 0;
  while ((pos = v.find("end", pos)) != std::string::npos)
    ++ends, pos += 3;
  EXPECT_GE(ends, begins); // every begin closed ("endmodule"/"endcase" add)
}

TEST(Verilog, RomInitialBlockPresent) {
  auto w = build("const int t[3] = {9, 8, 7};\nint f(int i) { return t[i]; }",
                 "f");
  std::string v = rtl::emitVerilog(*w->design);
  EXPECT_NE(v.find("initial begin"), std::string::npos);
  EXPECT_NE(v.find("mem_t[0] = 32'h9"), std::string::npos);
}

} // namespace
} // namespace c2h
