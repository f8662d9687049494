// Asynchronous dataflow (CASH) backend and if-conversion tests.
#include "async/dataflow.h"
#include "frontend/sema.h"
#include "interp/interp.h"
#include "ir/exec.h"
#include "ir/lower.h"
#include "opt/ifconvert.h"
#include "opt/irpasses.h"
#include "support/text.h"

#include <gtest/gtest.h>

namespace c2h {
namespace {

struct World {
  TypeContext types;
  DiagnosticEngine diags;
  std::unique_ptr<ast::Program> ast;
  std::unique_ptr<ir::Module> module;
  sched::TechLibrary lib;
};

std::unique_ptr<World> lowered(const std::string &src) {
  auto w = std::make_unique<World>();
  w->ast = frontend(src, w->types, w->diags);
  EXPECT_NE(w->ast, nullptr) << w->diags.str();
  w->module = ir::lowerToIR(*w->ast, w->diags);
  EXPECT_NE(w->module, nullptr) << w->diags.str();
  opt::optimizeModule(*w->module);
  return w;
}

// ---------------------------------------------------------------------------
// If-conversion
// ---------------------------------------------------------------------------

TEST(IfConvert, TriangleBecomesMux) {
  auto w = lowered("int f(int a) { int r = a; if (a < 0) { r = -a; } "
                   "return r; }");
  EXPECT_TRUE(opt::ifConvert(*w->module));
  opt::optimizeModule(*w->module);
  EXPECT_EQ(w->module->findFunction("f")->blocks().size(), 1u);
  EXPECT_TRUE(ir::verify(*w->module).empty());
  ir::IRExecutor exec(*w->module);
  EXPECT_EQ(exec.call("f", {BitVector::fromInt(32, -5)})
                .returnValue.toInt64(),
            5);
  ir::IRExecutor exec2(*w->module);
  EXPECT_EQ(exec2.call("f", {BitVector::fromInt(32, 7)})
                .returnValue.toInt64(),
            7);
}

TEST(IfConvert, DiamondBecomesMux) {
  auto w = lowered("int f(int a, int b) { int r; if (a > b) { r = a * 2; } "
                   "else { r = b * 3; } return r; }");
  EXPECT_TRUE(opt::ifConvert(*w->module));
  opt::optimizeModule(*w->module);
  EXPECT_EQ(w->module->findFunction("f")->blocks().size(), 1u);
  ir::IRExecutor exec(*w->module);
  EXPECT_EQ(exec.call("f", {BitVector(32, 5), BitVector(32, 3)})
                .returnValue.toInt64(),
            10);
  ir::IRExecutor exec2(*w->module);
  EXPECT_EQ(exec2.call("f", {BitVector(32, 2), BitVector(32, 3)})
                .returnValue.toInt64(),
            9);
}

TEST(IfConvert, MemoryArmsNotSpeculated) {
  auto w = lowered("int g;\nint f(int a) { if (a > 0) { g = a; } return g; }");
  opt::ifConvert(*w->module);
  // The store makes the arm unconvertible: control flow must remain.
  EXPECT_GT(w->module->findFunction("f")->blocks().size(), 1u);
}

TEST(IfConvert, LoopsNotConverted) {
  auto w = lowered(
      "int f(int n) { int s = 0; while (n > 0) { s = s + n; n = n - 1; } "
      "return s; }");
  opt::ifConvert(*w->module);
  opt::optimizeModule(*w->module);
  EXPECT_GT(w->module->findFunction("f")->blocks().size(), 1u);
  ir::IRExecutor exec(*w->module);
  EXPECT_EQ(exec.call("f", {BitVector(32, 4)}).returnValue.toInt64(), 10);
}

TEST(IfConvert, ParityOnRandomInputs) {
  const char *src = R"(
    int f(int a, int b) {
      int r = 0;
      if (a > b) { r = a - b; } else { r = b - a; }
      if (r > 100) { r = r / 2 + 1; }
      int s;
      if ((a ^ b) & 1) { s = r * 3; } else { s = r + 7; }
      return s;
    })";
  auto w0 = lowered(src);
  auto w1 = lowered(src);
  opt::ifConvert(*w1->module);
  opt::optimizeModule(*w1->module);
  ASSERT_TRUE(ir::verify(*w1->module).empty());
  SplitMix64 rng(42);
  for (int i = 0; i < 50; ++i) {
    std::int64_t a = static_cast<std::int32_t>(rng.next());
    std::int64_t b = static_cast<std::int32_t>(rng.next());
    ir::IRExecutor e0(*w0->module), e1(*w1->module);
    std::vector<BitVector> args{BitVector::fromInt(32, a),
                                BitVector::fromInt(32, b)};
    auto r0 = e0.call("f", args);
    auto r1 = e1.call("f", args);
    ASSERT_TRUE(r0.ok && r1.ok);
    EXPECT_EQ(r0.returnValue.toStringHex(), r1.returnValue.toStringHex())
        << "a=" << a << " b=" << b;
  }
}

// ---------------------------------------------------------------------------
// Asynchronous dataflow
// ---------------------------------------------------------------------------

TEST(Async, CircuitInfoCountsNodesAndHandshakes) {
  auto w = lowered("int f(int a, int b) { return a * b + (a ^ b); }");
  auto info = async::buildCircuitInfo(*w->module,
                                      *w->module->findFunction("f"),
                                      w->lib);
  EXPECT_GE(info.nodes, 3u);
  EXPECT_GT(info.area, 0.0);
}

TEST(Async, SimulationMatchesGoldenValues) {
  const char *src = R"(
    int t[16];
    int f(int seed) {
      for (int i = 0; i < 16; i = i + 1) { t[i] = seed * i + (seed >> 2); }
      int s = 0;
      for (int i = 0; i < 16; i = i + 1) { s = s + t[i] * t[15 - i]; }
      return s;
    })";
  TypeContext types;
  DiagnosticEngine diags;
  auto ast = frontend(src, types, diags);
  auto module = ir::lowerToIR(*ast, diags);
  opt::optimizeModule(*module);
  sched::TechLibrary lib;
  for (std::int64_t seed : {1, 7, -3}) {
    Interpreter interp(*ast);
    auto golden = interp.call("f", {BitVector::fromInt(32, seed)});
    auto r = async::simulateAsync(*module, "f",
                                  {BitVector::fromInt(32, seed)}, lib);
    ASSERT_TRUE(golden.ok && r.ok) << golden.error << r.error;
    EXPECT_EQ(golden.returnValue.toStringHex(),
              r.returnValue.resize(32, false).toStringHex());
    EXPECT_GT(r.timeNs, 0.0);
  }
}

TEST(Async, DataDependentLatency) {
  // Collatz: async completion time tracks the actual trajectory length —
  // the async circuit's average case, not a worst-case clock.
  const char *src = R"(
    int f(int n) {
      int steps = 0;
      while (n != 1) {
        if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
        steps = steps + 1;
      }
      return steps;
    })";
  auto w = lowered(src);
  auto fast = async::simulateAsync(*w->module, "f", {BitVector(32, 2)},
                                   w->lib);
  auto slow = async::simulateAsync(*w->module, "f", {BitVector(32, 27)},
                                   w->lib);
  ASSERT_TRUE(fast.ok && slow.ok);
  EXPECT_LT(fast.timeNs, slow.timeNs);
}

TEST(Async, ConcurrencyRejected) {
  auto w = lowered("chan<int> c;\nint f() { par { c ! 1; { int t; c ? t; } } "
                   "return 0; }");
  auto r = async::simulateAsync(*w->module, "f", {}, w->lib);
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("sequential"), std::string::npos);
}

TEST(Async, MemorySequentialization) {
  // Two programs with identical op counts; one strides through one memory
  // (serialized), the other reads two memories (parallel): the parallel
  // one finishes sooner.
  const char *oneMem = R"(
    int t[32];
    int f() {
      int s = 0;
      for (int i = 0; i < 16; i = i + 1) { s = s + t[i] + t[31 - i]; }
      return s;
    })";
  const char *twoMem = R"(
    int ta[16]; int tb[16];
    int f() {
      int s = 0;
      for (int i = 0; i < 16; i = i + 1) { s = s + ta[i] + tb[i]; }
      return s;
    })";
  auto w1 = lowered(oneMem);
  auto w2 = lowered(twoMem);
  auto r1 = async::simulateAsync(*w1->module, "f", {}, w1->lib);
  auto r2 = async::simulateAsync(*w2->module, "f", {}, w2->lib);
  ASSERT_TRUE(r1.ok && r2.ok);
  EXPECT_LT(r2.timeNs, r1.timeNs);
}

TEST(Async, BudgetEnforced) {
  auto w = lowered("int f() { while (true) { } return 0; }");
  async::AsyncSimOptions o;
  o.maxOperations = 1000;
  auto r = async::simulateAsync(*w->module, "f", {}, w->lib, o);
  EXPECT_FALSE(r.ok);
  // The operation limit is a resource limit with a structured verdict.
  EXPECT_EQ(r.verdict.kind, guard::Kind::StepLimit);
  EXPECT_EQ(r.verdict.stage, "async.sim");
  EXPECT_TRUE(r.verdict.isResourceLimit());
}

TEST(Async, SharedMeterDeadlineIsPolled) {
  auto w = lowered("int f() { while (true) { } return 0; }");
  guard::ExecBudget meter;
  meter.cancel();
  async::AsyncSimOptions o;
  o.budget = &meter;
  auto r = async::simulateAsync(*w->module, "f", {}, w->lib, o);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.verdict.kind, guard::Kind::Cancelled);
  EXPECT_EQ(r.verdict.stage, "async.sim");
  // Polled every 1024 operations, far below the default operation limit.
  EXPECT_LT(r.operations, 2048u);
}

} // namespace
} // namespace c2h
