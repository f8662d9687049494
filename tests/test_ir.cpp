// IR construction, verification, lowering, and the interpreter/IR-executor
// parity chain.
#include "core/c2h.h"
#include "frontend/sema.h"
#include "interp/interp.h"
#include "ir/builder.h"
#include "ir/dataflow.h"
#include "ir/exec.h"
#include "ir/liveness.h"
#include "ir/lower.h"
#include "opt/ifconvert.h"
#include "opt/inline.h"
#include "opt/irpasses.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <random>
#include <set>

namespace c2h {
namespace {

struct LoweredProgram {
  TypeContext types;
  DiagnosticEngine diags;
  std::unique_ptr<ast::Program> ast;
  std::unique_ptr<ir::Module> module;
};

std::unique_ptr<LoweredProgram> lower(const std::string &src,
                                      ir::LowerOptions options = {}) {
  auto r = std::make_unique<LoweredProgram>();
  r->ast = frontend(src, r->types, r->diags);
  EXPECT_NE(r->ast, nullptr) << r->diags.str();
  if (r->ast)
    r->module = ir::lowerToIR(*r->ast, r->diags, options);
  return r;
}


// ---------------------------------------------------------------------------
// Builder / verifier
// ---------------------------------------------------------------------------

TEST(IrVerifier, AcceptsWellFormedFunction) {
  ir::Module m;
  ir::Function *f = m.addFunction("f", 32);
  ir::VReg a = f->newVReg(32);
  f->params().push_back(a);
  ir::Builder b(*f);
  b.setInsertPoint(f->newBlock("entry"));
  ir::VReg sum = b.emitBinary(ir::Opcode::Add, a, a);
  b.emitRet(sum);
  EXPECT_TRUE(ir::verify(m).empty());
}

TEST(IrVerifier, RejectsWidthMismatch) {
  ir::Module m;
  ir::Function *f = m.addFunction("f", 32);
  ir::Builder b(*f);
  b.setInsertPoint(f->newBlock("entry"));
  // Hand-build a bad add: 8-bit + 16-bit.
  auto instr = std::make_unique<ir::Instr>();
  instr->op = ir::Opcode::Add;
  instr->dst = f->newVReg(8);
  instr->operands = {ir::Operand(BitVector(8, 1)),
                     ir::Operand(BitVector(16, 2))};
  b.emit(std::move(instr));
  b.emitRet(ir::Operand(BitVector(32)));
  auto problems = ir::verify(m);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("width mismatch"), std::string::npos);
}

TEST(IrVerifier, RejectsMissingTerminator) {
  ir::Module m;
  ir::Function *f = m.addFunction("f", 0);
  ir::Builder b(*f);
  b.setInsertPoint(f->newBlock("entry"));
  b.emitConst(BitVector(8, 1));
  auto problems = ir::verify(m);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("terminator"), std::string::npos);
}

TEST(IrVerifier, RejectsStoreToRom) {
  ir::Module m;
  auto &mem = m.addMem("rom", 8, 4);
  mem.readOnly = true;
  ir::Function *f = m.addFunction("f", 0);
  ir::Builder b(*f);
  b.setInsertPoint(f->newBlock("entry"));
  b.emitStore(mem.id, ir::Operand(BitVector(32, 0)),
              ir::Operand(BitVector(8, 1)));
  b.emitRet();
  auto problems = ir::verify(m);
  ASSERT_FALSE(problems.empty());
  EXPECT_NE(problems[0].find("read-only"), std::string::npos);
}

TEST(IrStructure, ReversePostOrderStartsAtEntry) {
  ir::Module m;
  ir::Function *f = m.addFunction("f", 0);
  ir::Builder b(*f);
  auto *entry = f->newBlock("entry");
  auto *body = f->newBlock("body");
  auto *exit = f->newBlock("exit");
  b.setInsertPoint(entry);
  b.emitBr(body);
  b.setInsertPoint(body);
  b.emitCondBr(ir::Operand(BitVector(1, 1)), body, exit);
  b.setInsertPoint(exit);
  b.emitRet();
  auto rpo = f->reversePostOrder();
  ASSERT_EQ(rpo.size(), 3u);
  EXPECT_EQ(rpo.front()->name(), "entry");
}

// ---------------------------------------------------------------------------
// Lowering structure
// ---------------------------------------------------------------------------

TEST(Lower, SimpleFunctionVerifies) {
  auto p = lower("int f(int a, int b) { return a + b * 2; }");
  ASSERT_NE(p->module, nullptr) << p->diags.str();
  EXPECT_TRUE(ir::verify(*p->module).empty());
}

TEST(Lower, GlobalsGetOwnMemories) {
  auto p = lower("int x;\nint tab[4];\nvoid f() { x = tab[1]; }");
  ASSERT_NE(p->module, nullptr) << p->diags.str();
  EXPECT_NE(p->module->findMem("x"), nullptr);
  EXPECT_NE(p->module->findMem("tab"), nullptr);
  EXPECT_EQ(p->module->findMem("tab")->depth, 4u);
}

TEST(Lower, ConstGlobalBecomesRom) {
  auto p = lower("const int k[2] = {3, 4};\nint f() { return k[0]; }");
  ASSERT_NE(p->module, nullptr) << p->diags.str();
  const ir::MemObject *mem = p->module->findMem("k");
  ASSERT_NE(mem, nullptr);
  EXPECT_TRUE(mem->readOnly);
  ASSERT_EQ(mem->init.size(), 2u);
  EXPECT_EQ(mem->init[0].toUint64(), 3u);
}

TEST(Lower, PointerProgramUsesUnifiedMemory) {
  auto p = lower("int f() { int x = 1; int *q = &x; return *q; }");
  ASSERT_NE(p->module, nullptr) << p->diags.str();
  EXPECT_NE(p->module->findMem("umem"), nullptr);
}

TEST(Lower, PointerFreeProgramHasNoUnifiedMemory) {
  auto p = lower("int t[4];\nint f() { return t[0]; }");
  ASSERT_NE(p->module, nullptr) << p->diags.str();
  EXPECT_EQ(p->module->findMem("umem"), nullptr);
}

TEST(Lower, ForceUnifiedOptionRespected) {
  ir::LowerOptions options;
  options.forceUnifiedMemory = true;
  auto p = lower("int t[4];\nint f() { return t[0]; }", options);
  ASSERT_NE(p->module, nullptr) << p->diags.str();
  EXPECT_NE(p->module->findMem("umem"), nullptr);
}

TEST(Lower, ParBranchesBecomeProcesses) {
  auto p = lower(R"(
    int a; int b;
    void f() { par { a = 1; b = 2; } }
  )");
  ASSERT_NE(p->module, nullptr) << p->diags.str();
  unsigned processes = 0;
  bool sawFork = false;
  for (const auto &fn : p->module->functions()) {
    if (fn->isProcess)
      ++processes;
    for (const auto &bb : fn->blocks())
      for (const auto &i : bb->instrs())
        if (i->op == ir::Opcode::Fork) {
          sawFork = true;
          EXPECT_EQ(i->processes.size(), 2u);
        }
  }
  EXPECT_EQ(processes, 2u);
  EXPECT_TRUE(sawFork);
  EXPECT_TRUE(ir::verify(*p->module).empty());
}

TEST(Lower, SharedLocalsAreMemPlaced) {
  auto p = lower(R"(
    void f() {
      int shared = 0;
      par { shared = 1; shared = 2; }
    }
  )");
  ASSERT_NE(p->module, nullptr) << p->diags.str();
  bool found = false;
  for (const auto &mem : p->module->mems())
    if (mem.name.find("shared") != std::string::npos)
      found = true;
  EXPECT_TRUE(found);
}

TEST(Lower, ChannelsBecomeModuleChannels) {
  auto p = lower(R"(
    chan<int<8>> c;
    void f() { par { c ! 1; { int<8> x; c ? x; } } }
  )");
  ASSERT_NE(p->module, nullptr) << p->diags.str();
  ASSERT_EQ(p->module->chans().size(), 1u);
  EXPECT_EQ(p->module->chans()[0].width, 8u);
}

TEST(Lower, ConstraintsTagInstructions) {
  auto p = lower(
      "int f(int a) { constraint(1, 2) { a = a + 1; a = a * 2; } return a; }");
  ASSERT_NE(p->module, nullptr) << p->diags.str();
  const ir::Function *f = p->module->findFunction("f");
  ASSERT_EQ(f->constraints().size(), 1u);
  EXPECT_EQ(f->constraints()[0].minCycles, 1u);
  EXPECT_EQ(f->constraints()[0].maxCycles, 2u);
  unsigned tagged = 0;
  for (const auto &bb : f->blocks())
    for (const auto &i : bb->instrs())
      if (i->constraintId == 1)
        ++tagged;
  EXPECT_GE(tagged, 2u);
}

TEST(Lower, DelayLowersToDelayInstr) {
  auto p = lower("void f() { delay(3); }");
  ASSERT_NE(p->module, nullptr) << p->diags.str();
  bool found = false;
  for (const auto &bb : p->module->findFunction("f")->blocks())
    for (const auto &i : bb->instrs())
      if (i->op == ir::Opcode::Delay && i->delayCycles == 3)
        found = true;
  EXPECT_TRUE(found);
}

TEST(Lower, ReturnInsideParRejected) {
  TypeContext types;
  DiagnosticEngine diags;
  auto ast = frontend("int f() { par { return 1; } return 0; }", types, diags);
  ASSERT_NE(ast, nullptr);
  auto module = ir::lowerToIR(*ast, diags);
  EXPECT_EQ(module, nullptr);
  EXPECT_TRUE(diags.contains("par branch"));
}

TEST(Lower, ArrayArgumentRequiresInliner) {
  TypeContext types;
  DiagnosticEngine diags;
  auto ast = frontend("int g(int a[2]) { return a[0]; }"
                      "int f() { int b[2]; return g(b); }",
                      types, diags);
  ASSERT_NE(ast, nullptr);
  auto module = ir::lowerToIR(*ast, diags);
  EXPECT_EQ(module, nullptr);
  EXPECT_TRUE(diags.contains("inliner"));
}

// ---------------------------------------------------------------------------
// Parity: AST interpreter == IR executor
// ---------------------------------------------------------------------------

struct ParityCase {
  const char *name;
  const char *source;
  const char *fn;
  std::vector<std::vector<std::int64_t>> argSets;
};

// gtest names each case after its printed value; print the case name so the
// name does not embed pointer bytes that change from build to build.
void PrintTo(const ParityCase &c, std::ostream *os) { *os << c.name; }

class IrParity : public ::testing::TestWithParam<ParityCase> {};

TEST_P(IrParity, InterpreterAndExecutorAgree) {
  const ParityCase &tc = GetParam();
  TypeContext types;
  DiagnosticEngine diags;
  auto ast = frontend(tc.source, types, diags);
  ASSERT_NE(ast, nullptr) << diags.str();
  auto module = ir::lowerToIR(*ast, diags);
  ASSERT_NE(module, nullptr) << diags.str();
  ASSERT_TRUE(ir::verify(*module).empty());

  for (const auto &args : tc.argSets) {
    Interpreter interp(*ast);
    ir::IRExecutor exec(*module);
    std::vector<BitVector> bvArgs;
    const ast::FuncDecl *fd = ast->findFunction(tc.fn);
    ASSERT_NE(fd, nullptr);
    for (std::size_t i = 0; i < args.size(); ++i)
      bvArgs.push_back(BitVector::fromInt(
          fd->params[i]->type->bitWidth(), args[i]));
    auto ri = interp.call(tc.fn, bvArgs);
    auto re = exec.call(tc.fn, bvArgs);
    ASSERT_TRUE(ri.ok) << ri.error;
    ASSERT_TRUE(re.ok) << re.error;
    if (!fd->returnType->isVoid()) {
      EXPECT_EQ(ri.returnValue.toStringSigned(),
                re.returnValue.resize(ri.returnValue.width(), true)
                    .toStringSigned())
          << tc.name;
    }
    // Compare every global, cell by cell.
    for (const auto &g : ast->globals) {
      if (g->type->isChan())
        continue;
      auto gi = interp.readGlobal(g->name);
      auto ge = exec.readGlobal(g->name);
      ASSERT_EQ(gi.size(), ge.size()) << g->name;
      for (std::size_t i = 0; i < gi.size(); ++i)
        EXPECT_EQ(gi[i].toStringHex(), ge[i].toStringHex())
            << tc.name << " global " << g->name << "[" << i << "]";
    }
  }
}

const ParityCase kParityCases[] = {
    {"arith",
     "int f(int a, int b) { return (a + b) * (a - b) / (b + 1) % 17; }", "f",
     {{10, 3}, {-5, 2}, {100, 99}, {0, 0}}},
    {"bitops",
     "uint f(uint a, uint b) { return (a & b) | (a ^ 0xff) | (~b >> 3) | (a << 2); }",
     "f",
     {{0x1234, 0x00ff}, {0xffffffff, 1}, {0, 0}}},
    {"narrowWrap", "uint<4> f(uint<4> a) { return a * 3 + 7; }", "f",
     {{0}, {5}, {15}}},
    {"signedNarrow", "int<5> f(int<5> a) { return a - 3; }", "f",
     {{-16}, {-1}, {15}}},
    {"compare",
     "int f(int a, int b) { int n = 0; if (a < b) { n = n + 1; } "
     "if (a <= b) { n = n + 2; } if (a == b) { n = n + 4; } "
     "if (a >= b) { n = n + 8; } return n; }",
     "f", {{1, 2}, {2, 2}, {3, 2}, {-1, 1}}},
    {"unsignedCompare",
     "int f(uint a, uint b) { return a < b ? 1 : 0; }", "f",
     {{-1 /*0xffffffff*/, 1}, {1, 2}}},
    {"loops",
     "int f(int n) { int s = 0; for (int i = 0; i < n; i = i + 1) { "
     "if (i % 3 == 0) { continue; } if (i > 20) { break; } s = s + i; } "
     "return s; }",
     "f", {{0}, {10}, {50}}},
    {"whileGcd",
     "int f(int a, int b) { while (b != 0) { int t = b; b = a % b; a = t; } "
     "return a; }",
     "f", {{48, 36}, {17, 5}, {0, 9}}},
    {"doWhile",
     "int f(int n) { int c = 0; do { n = n / 2; c = c + 1; } while (n > 0); "
     "return c; }",
     "f", {{1}, {100}, {0}}},
    {"ternaryMux", "int f(int a, int b) { return a > b ? a * 2 : b + 1; }",
     "f", {{5, 3}, {2, 9}}},
    {"logical",
     "int f(int a, int b) { return (a > 0 && b > 0) || (a < 0 && b < 0) ? 7 "
     ": 8; }",
     "f", {{1, 1}, {-1, -2}, {1, -1}, {0, 0}}},
    {"globalsArrays",
     "int acc;\nint hist[8];\nvoid f(int x) { hist[x % 8] = hist[x % 8] + 1; "
     "acc = acc + x; }",
     "f", {{3}, {11}, {200}}},
    {"multiDim",
     "int m[3][4];\nvoid f(int s) { for (int i = 0; i < 3; i = i + 1) "
     "for (int j = 0; j < 4; j = j + 1) m[i][j] = s + i * 4 + j; }",
     "f", {{100}}},
    {"romLookup",
     "const int sq[8] = {0, 1, 4, 9, 16, 25, 36, 49};\n"
     "int f(int i) { return sq[i & 7]; }",
     "f", {{0}, {3}, {7}, {12}}},
    {"calls",
     "int sq(int x) { return x * x; }\n"
     "int f(int a, int b) { return sq(a) + sq(b) + sq(a + b); }",
     "f", {{2, 3}, {-4, 4}}},
    {"recursion",
     "int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - "
     "2); }",
     "fib", {{0}, {1}, {10}, {15}}},
    {"mutualRecursion",
     "int even(int n) { if (n == 0) { return 1; } return odd(n - 1); }\n"
     "int odd(int n) { if (n == 0) { return 0; } return even(n - 1); }\n"
     "int f(int n) { return even(n) * 10 + odd(n); }",
     "f", {{0}, {5}, {8}}},
    {"pointers",
     "int f(int a) { int x = a; int *p = &x; *p = *p + 5; return x + *p; }",
     "f", {{1}, {-3}}},
    {"pointerArray",
     "int f(int k) { int buf[6] = {5, 4, 3, 2, 1, 0}; int *p = &buf[1]; "
     "p = p + k; return *p + p[1]; }",
     "f", {{0}, {2}, {3}}},
    {"casts",
     "int f(int a) { int<8> b = (int<8>)a; uint<8> c = (uint<8>)a; "
     "return (int)b * 1000 + (int)c; }",
     "f", {{-1}, {127}, {255}, {300}}},
    {"boolCast", "int f(int a) { bool b = a; return b ? 5 : 6; }", "f",
     {{0}, {42}, {-1}}},
    {"shifts",
     "int f(int a, int b) { return (a << (b & 31)) + (a >> ((b + 1) & 31)); }",
     "f", {{-64, 2}, {1, 31}, {12345, 7}}},
    {"compoundOps",
     "int f(int a) { a += 3; a *= 2; a -= 1; a /= 3; a %= 100; a <<= 2; "
     "a >>= 1; a |= 5; a &= 127; a ^= 33; return a; }",
     "f", {{10}, {-7}, {0}}},
    {"incDec",
     "int f(int a) { int b = a++; int c = ++a; int d = a--; int e = --a; "
     "return a * 10000 + b * 1000 + c * 100 + d * 10 + e; }",
     "f", {{3}}},
    {"fir",
     "const int coeff[4] = {1, 2, 3, 4};\n"
     "int x[8] = {1, 0, 0, 1, 1, 0, 1, 0};\n"
     "int y[8];\n"
     "void f() { for (int n = 0; n < 8; n = n + 1) { int acc = 0; "
     "for (int k = 0; k < 4; k = k + 1) { if (n - k >= 0) "
     "{ acc = acc + coeff[k] * x[n - k]; } } y[n] = acc; } }",
     "f", {{}}},
    {"sideEffectTernary",
     "int g;\nint bump() { g = g + 1; return g; }\n"
     "int f(int a) { int r = a > 0 ? bump() : 7; return r * 100 + g; }",
     "f", {{1}, {0}}},
    {"sideEffectLogical",
     "int g;\nint bump() { g = g + 1; return g; }\n"
     "int f(int a) { int r = (a > 0 && bump() > 0) ? 1 : 0; return r * 100 + "
     "g; }",
     "f", {{1}, {0}}},
};

INSTANTIATE_TEST_SUITE_P(
    Programs, IrParity, ::testing::ValuesIn(kParityCases),
    [](const ::testing::TestParamInfo<ParityCase> &info) {
      return std::string(info.param.name);
    });

TEST(IrExec, InstructionBudget) {
  auto p = lower("int f() { while (true) { } return 0; }");
  ASSERT_NE(p->module, nullptr);
  ir::IRExecutor exec(*p->module, 10000);
  auto r = exec.call("f");
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("budget"), std::string::npos);
}

TEST(IrExec, OutOfBoundsDetected) {
  auto p = lower("int t[4];\nint f(int i) { return t[i]; }");
  ASSERT_NE(p->module, nullptr);
  ir::IRExecutor exec(*p->module);
  auto r = exec.call("f", {BitVector(32, 99)});
  EXPECT_FALSE(r.ok);
  EXPECT_NE(r.error.find("out of bounds"), std::string::npos);
}

TEST(IrExec, WriteGlobalRoundTrip) {
  auto p = lower("int d[3];\nint f() { return d[0] + d[1] + d[2]; }");
  ASSERT_NE(p->module, nullptr);
  ir::IRExecutor exec(*p->module);
  exec.writeGlobal("d", {BitVector(32, 1), BitVector(32, 2), BitVector(32, 3)});
  auto r = exec.call("f");
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.returnValue.toUint64(), 6u);
}

TEST(IrPrinter, ProducesReadableListing) {
  auto p = lower("int f(int a) { return a + 1; }");
  ASSERT_NE(p->module, nullptr);
  std::string s = p->module->str();
  EXPECT_NE(s.find("func f"), std::string::npos);
  EXPECT_NE(s.find("add"), std::string::npos);
  EXPECT_NE(s.find("ret"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fingerprint and clone
// ---------------------------------------------------------------------------

// A ROM with an init image, a global, source locations, a timing constraint
// and an if-convertible diamond.
const char *kFingerprintSource = R"(
const int rom[2] = {3, 5};
int g;
int f(int a) {
  constraint(1, 2) { a = a + rom[1]; }
  int x;
  if (a > 4) x = a - 4; else x = a + 1;
  g = x;
  return x;
}
)";

TEST(IrFingerprint, SeesWhatThePrinterOmits) {
  auto p = lower(kFingerprintSource);
  ASSERT_NE(p->module, nullptr) << p->diags.str();
  const std::string listing = p->module->str();
  const ir::Fingerprint base = ir::fingerprint(*p->module);
  EXPECT_EQ(ir::fingerprint(*p->module), base);

  auto expectSeen = [&](const char *what, bool printed,
                        const std::function<void(ir::Module &)> &mutate) {
    std::unique_ptr<ir::Module> m = ir::cloneModule(*p->module);
    mutate(*m);
    if (!printed)
      EXPECT_EQ(m->str(), listing) << what;
    ir::Fingerprint changed = ir::fingerprint(*m);
    EXPECT_NE(changed.text, base.text) << what;
    EXPECT_NE(changed.hash, base.hash) << what;
  };
  expectSeen("mem init", false, [](ir::Module &m) {
    m.findMem("rom")->init[1] = BitVector(32, 6);
  });
  expectSeen("global slot", false, [](ir::Module &m) {
    for (auto &slot : m.globalMap())
      if (slot.name == "g")
        slot.width = 8;
  });
  expectSeen("instr loc", false, [](ir::Module &m) {
    for (const auto &bb : m.findFunction("f")->blocks())
      for (const auto &i : bb->instrs())
        if (i->loc.isValid()) {
          ++i->loc.column;
          return;
        }
  });
  expectSeen("vreg counter", false,
             [](ir::Module &m) { m.findFunction("f")->newVReg(1); });
  // Function::str() prints constraint windows, so only the fingerprint
  // half applies here.
  expectSeen("timing constraint", true, [](ir::Module &m) {
    m.findFunction("f")->constraints()[0].maxCycles = 3;
  });
}

TEST(IrClone, EqualFingerprintAndTargetsIntoTheClone) {
  auto p = lower(kFingerprintSource);
  ASSERT_NE(p->module, nullptr) << p->diags.str();
  std::unique_ptr<ir::Module> copy = ir::cloneModule(*p->module);
  EXPECT_EQ(ir::fingerprint(*copy), ir::fingerprint(*p->module));
  EXPECT_EQ(copy->str(), p->module->str());
  EXPECT_TRUE(ir::verify(*copy).empty());
  unsigned condBrs = 0;
  for (const auto &fn : copy->functions()) {
    std::set<const ir::BasicBlock *> owned;
    for (const auto &bb : fn->blocks())
      owned.insert(bb.get());
    for (const auto &bb : fn->blocks())
      for (const auto &i : bb->instrs()) {
        if (i->op != ir::Opcode::CondBr)
          continue;
        ++condBrs;
        EXPECT_TRUE(owned.count(i->target0) && owned.count(i->target1))
            << i->str();
      }
  }
  EXPECT_GT(condBrs, 0u);
}

TEST(IrClone, RewritingTheCloneLeavesTheOriginal) {
  auto p = lower(kFingerprintSource);
  ASSERT_NE(p->module, nullptr) << p->diags.str();
  const ir::Fingerprint before = ir::fingerprint(*p->module);
  std::unique_ptr<ir::Module> copy = ir::cloneModule(*p->module);
  ASSERT_TRUE(opt::ifConvert(*copy));
  EXPECT_NE(ir::fingerprint(*copy), before);
  EXPECT_EQ(ir::fingerprint(*p->module), before);
  EXPECT_TRUE(ir::verify(*p->module).empty());
}

// ---------------------------------------------------------------------------
// Forward dataflow solver (weak topological order)
// ---------------------------------------------------------------------------

// A counting lattice for hand-built CFGs: an int per block, joined by max.
// Every edge passes its block's in-state on, except that a block listed in
// `caps` adds one, up to its cap.  `trace` records each transfer.
struct CountingLattice {
  std::map<const ir::BasicBlock *, int> caps;
  std::vector<std::pair<const ir::BasicBlock *, int>> trace;

  auto transfer() {
    return [this](const ir::BasicBlock &b, const int &in,
                  ir::EdgeStates<int> &edges) {
      trace.push_back({&b, in});
      int out = in;
      if (auto it = caps.find(&b); it != caps.end())
        out = std::min(in + 1, it->second);
      for (std::size_t e = 0; e < b.successors().size(); ++e) {
        edges.state[e] = out;
        edges.feasible[e] = true;
      }
    };
  }
  static bool join(const ir::BasicBlock &, int &into, const int &from, bool) {
    if (from <= into)
      return false;
    into = from;
    return true;
  }
  ir::DataflowResult<int> solve(const ir::Function &fn,
                                unsigned maxRounds = 0) {
    return ir::solveForwardDataflow(fn, ir::dataflowOrder(fn), 0, transfer(),
                                    join, 0, maxRounds);
  }
};

const ir::Operand kTrue{BitVector(1, 1)};

// `k` loops in sequence; loop j's body counts up to 10·j, so each loop
// starts where the one before it settled and runs ten more iterations.
std::unique_ptr<ir::Module> sequentialLoops(unsigned k,
                                            CountingLattice &lattice) {
  auto m = std::make_unique<ir::Module>();
  ir::Function *f = m->addFunction("f", 0);
  ir::Builder b(*f);
  ir::BasicBlock *entry = f->newBlock("entry");
  std::vector<ir::BasicBlock *> heads, bodies;
  for (unsigned j = 0; j < k; ++j) {
    heads.push_back(f->newBlock(""));
    bodies.push_back(f->newBlock(""));
  }
  ir::BasicBlock *exit = f->newBlock("exit");
  b.setInsertPoint(entry);
  b.emitBr(heads[0]);
  for (unsigned j = 0; j < k; ++j) {
    b.setInsertPoint(heads[j]);
    b.emitCondBr(kTrue, bodies[j], j + 1 < k ? heads[j + 1] : exit);
    b.setInsertPoint(bodies[j]);
    b.emitBr(heads[j]);
    lattice.caps[bodies[j]] = 10 * static_cast<int>(j + 1);
  }
  b.setInsertPoint(exit);
  b.emitRet();
  return m;
}

TEST(Dataflow, SequentialLoopsCostLinearTransfers) {
  // Each loop is stabilized once, before the next one starts, so every
  // loop costs the same: eleven passes over its header and body.
  auto transfers = [](unsigned k) {
    CountingLattice lattice;
    auto m = sequentialLoops(k, lattice);
    auto r = lattice.solve(*m->functions().front());
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.at(m->functions().front()->blocks().back().get()),
              10 * static_cast<int>(k));
    EXPECT_EQ(r.transfers, lattice.trace.size());
    return r.transfers;
  };
  const std::uint64_t one = transfers(1), perLoop = transfers(2) - one;
  EXPECT_EQ(perLoop, 22u);
  for (unsigned k : {4u, 16u, 64u, 256u})
    EXPECT_EQ(transfers(k), one + (k - 1) * perLoop) << k << " loops";
}

TEST(Dataflow, InnerLoopStabilizesBeforeTheOuterLatch) {
  ir::Module m;
  ir::Function *f = m.addFunction("f", 0);
  ir::Builder b(*f);
  auto *entry = f->newBlock("entry");
  auto *outer = f->newBlock("outer");
  auto *inner = f->newBlock("inner");
  auto *body = f->newBlock("body");
  auto *latch = f->newBlock("latch");
  auto *exit = f->newBlock("exit");
  b.setInsertPoint(entry);
  b.emitBr(outer);
  b.setInsertPoint(outer);
  b.emitCondBr(kTrue, inner, exit);
  b.setInsertPoint(inner);
  b.emitCondBr(kTrue, body, latch);
  b.setInsertPoint(body);
  b.emitBr(inner);
  b.setInsertPoint(latch);
  b.emitBr(outer);
  b.setInsertPoint(exit);
  b.emitRet();

  auto wto = ir::weakTopologicalOrder(*f);
  ASSERT_EQ(wto.size(), 6u);
  std::vector<std::string> names;
  for (const auto &e : wto)
    names.push_back(e.block->name());
  EXPECT_EQ(names, (std::vector<std::string>{"entry", "outer", "inner",
                                             "body", "latch", "exit"}));
  EXPECT_TRUE(wto[1].head);
  EXPECT_EQ(wto[1].end, 5u); // (outer (inner body) latch)
  EXPECT_TRUE(wto[2].head);
  EXPECT_EQ(wto[2].end, 4u); // (inner body)
  EXPECT_FALSE(wto[3].head);

  CountingLattice lattice;
  lattice.caps[body] = 10;
  auto r = lattice.solve(*f);
  ASSERT_TRUE(r.converged);
  EXPECT_EQ(r.at(exit), 10);
  // The latch only ever sees the inner loop's fixpoint: once on the way
  // out, once more to confirm the outer head is stable.
  std::vector<int> latchIns;
  for (const auto &[block, in] : lattice.trace)
    if (block == latch)
      latchIns.push_back(in);
  EXPECT_EQ(latchIns, (std::vector<int>{10, 10}));
}

TEST(Dataflow, IrreducibleLoopConverges) {
  // Two entries into one cycle: entry branches to both a and c, and a and
  // c branch to each other.  No block dominates the cycle.
  ir::Module m;
  ir::Function *f = m.addFunction("f", 0);
  ir::Builder b(*f);
  auto *entry = f->newBlock("entry");
  auto *a = f->newBlock("a");
  auto *c = f->newBlock("c");
  auto *exit = f->newBlock("exit");
  b.setInsertPoint(entry);
  b.emitCondBr(kTrue, a, c);
  b.setInsertPoint(a);
  b.emitCondBr(kTrue, c, exit);
  b.setInsertPoint(c);
  b.emitBr(a);
  b.setInsertPoint(exit);
  b.emitRet();

  CountingLattice lattice;
  lattice.caps[c] = 10;
  auto r = lattice.solve(*f);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.at(a), 10);
  EXPECT_EQ(r.at(c), 10);
  EXPECT_EQ(r.at(exit), 10);
}

TEST(Dataflow, LongChainDoesNotExhaustTheStack) {
  constexpr unsigned kBlocks = 100000;
  ir::Module m;
  ir::Function *f = m.addFunction("f", 0);
  ir::Builder b(*f);
  std::vector<ir::BasicBlock *> blocks;
  for (unsigned i = 0; i < kBlocks; ++i)
    blocks.push_back(f->newBlock(""));
  for (unsigned i = 0; i + 1 < kBlocks; ++i) {
    b.setInsertPoint(blocks[i]);
    b.emitBr(blocks[i + 1]);
  }
  b.setInsertPoint(blocks.back());
  b.emitRet();

  CountingLattice lattice;
  auto r = lattice.solve(*f);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.transfers, kBlocks);
  auto reached = std::count_if(r.in.begin(), r.in.end(),
                               [](const std::optional<int> &st) { return st; });
  EXPECT_EQ(static_cast<unsigned>(reached), kBlocks);
}

TEST(Dataflow, DeepLoopNestDoesNotExhaustTheStack) {
  // Loop i's header enters loop i + 1 or leaves to loop i - 1's latch.
  constexpr unsigned kDepth = 2000;
  ir::Module m;
  ir::Function *f = m.addFunction("f", 0);
  ir::Builder b(*f);
  auto *entry = f->newBlock("entry");
  std::vector<ir::BasicBlock *> heads, latches;
  for (unsigned i = 0; i < kDepth; ++i) {
    heads.push_back(f->newBlock(""));
    latches.push_back(f->newBlock(""));
  }
  auto *exit = f->newBlock("exit");
  b.setInsertPoint(entry);
  b.emitBr(heads[0]);
  for (unsigned i = 0; i < kDepth; ++i) {
    b.setInsertPoint(heads[i]);
    b.emitCondBr(kTrue, i + 1 < kDepth ? heads[i + 1] : latches[i],
                 i > 0 ? latches[i - 1] : exit);
    b.setInsertPoint(latches[i]);
    b.emitBr(heads[i]);
  }
  b.setInsertPoint(exit);
  b.emitRet();

  auto wto = ir::weakTopologicalOrder(*f);
  ASSERT_EQ(wto.size(), 2 * kDepth + 2);
  for (unsigned i = 0; i < kDepth; ++i) {
    // entry, heads[0..D), latches[D..0), exit
    EXPECT_EQ(wto[1 + i].block, heads[i]);
    EXPECT_TRUE(wto[1 + i].head);
    EXPECT_EQ(wto[1 + i].end, 2 * kDepth + 1 - i);
    EXPECT_EQ(wto[2 * kDepth - i].block, latches[i]);
  }

  // Nothing changes around any loop, so each component takes one pass.
  CountingLattice lattice;
  auto r = lattice.solve(*f);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.transfers, 2 * kDepth + 2);
}

TEST(Dataflow, JoinThatAlwaysChangesStopsAtTheCap) {
  ir::Module m;
  ir::Function *f = m.addFunction("f", 0);
  ir::Builder b(*f);
  auto *entry = f->newBlock("entry");
  auto *head = f->newBlock("head");
  auto *body = f->newBlock("body");
  auto *exit = f->newBlock("exit");
  b.setInsertPoint(entry);
  b.emitBr(head);
  b.setInsertPoint(head);
  b.emitCondBr(kTrue, body, exit);
  b.setInsertPoint(body);
  b.emitBr(head);
  b.setInsertPoint(exit);
  b.emitRet();

  CountingLattice lattice;
  auto r = ir::solveForwardDataflow(
      *f, ir::dataflowOrder(*f), 0, lattice.transfer(),
      [](const ir::BasicBlock &, int &, const int &, bool) { return true; },
      0, /*maxRounds=*/5);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.transfers, 5u * 4u); // maxRounds x reachable blocks
}


// ---------------------------------------------------------------------------
// Liveness
// ---------------------------------------------------------------------------

// Liveness by brute force: r is live out of b iff some path from a
// successor of b reaches a read of r before any write of it, and live into
// b iff b reads r before writing it or r is live out of b and b does not
// write it.  Each (block, vreg) pair is its own search.
struct PathLiveness {
  std::map<const ir::BasicBlock *, std::set<unsigned>> upward, written;

  explicit PathLiveness(const ir::Function &fn) {
    for (const auto &block : fn.blocks()) {
      auto &up = upward[block.get()];
      auto &wr = written[block.get()];
      for (const auto &instr : block->instrs()) {
        for (const auto &op : instr->operands)
          if (op.isReg() && !wr.count(op.reg().id))
            up.insert(op.reg().id);
        if (instr->dst)
          wr.insert(instr->dst->id);
      }
    }
  }
  bool liveOut(const ir::BasicBlock *b, unsigned r) const {
    std::set<const ir::BasicBlock *> seen;
    const ir::Successors first = b->successors();
    std::vector<const ir::BasicBlock *> work(first.begin(), first.end());
    while (!work.empty()) {
      const ir::BasicBlock *x = work.back();
      work.pop_back();
      if (!seen.insert(x).second)
        continue;
      if (upward.at(x).count(r))
        return true;
      if (!written.at(x).count(r)) {
        const ir::Successors next = x->successors();
        work.insert(work.end(), next.begin(), next.end());
      }
    }
    return false;
  }
  bool liveIn(const ir::BasicBlock *b, unsigned r) const {
    return upward.at(b).count(r) || (!written.at(b).count(r) && liveOut(b, r));
  }
};

// Every vreg that appears in `fn`, plus any id below vregCount().
std::vector<unsigned> vregsOf(const ir::Function &fn) {
  std::set<unsigned> regs;
  for (unsigned r = 0; r < fn.vregCount(); ++r)
    regs.insert(r);
  for (const auto &block : fn.blocks())
    for (const auto &instr : block->instrs()) {
      for (const auto &op : instr->operands)
        if (op.isReg())
          regs.insert(op.reg().id);
      if (instr->dst)
        regs.insert(instr->dst->id);
    }
  return {regs.begin(), regs.end()};
}

void expectMatchesPaths(const ir::Function &fn, const std::string &what) {
  ir::Liveness live(fn);
  PathLiveness paths(fn);
  const std::vector<unsigned> regs = vregsOf(fn);
  for (const auto &block : fn.blocks()) {
    std::vector<unsigned> in, out;
    for (unsigned r : regs) {
      if (paths.liveIn(block.get(), r))
        in.push_back(r);
      if (paths.liveOut(block.get(), r))
        out.push_back(r);
    }
    EXPECT_EQ(live.liveIn(block.get()), in)
        << what << " " << fn.name() << " block " << block->id();
    EXPECT_EQ(live.liveOut(block.get()), out)
        << what << " " << fn.name() << " block " << block->id();
  }
}

// A random function over `blocks` blocks and vregs 0..4; vreg 5 is read
// but never written.  Edges go anywhere, so self-loops, irreducible loops
// and blocks the entry cannot reach all occur.
std::unique_ptr<ir::Module> randomCfg(std::mt19937 &rng, unsigned blocks) {
  auto m = std::make_unique<ir::Module>();
  ir::Function *f = m->addFunction("f", 32);
  std::vector<ir::VReg> regs;
  for (unsigned r = 0; r < 6; ++r)
    regs.push_back(f->newVReg(32));
  f->params().push_back(regs[0]);
  std::vector<ir::BasicBlock *> bbs;
  for (unsigned i = 0; i < blocks; ++i)
    bbs.push_back(f->newBlock(""));
  auto pick = [&](unsigned n) {
    return std::uniform_int_distribution<unsigned>(0, n - 1)(rng);
  };
  auto operand = [&]() {
    return pick(3) == 0 ? ir::Operand(BitVector(32, 1))
                        : ir::Operand(regs[pick(6)]);
  };
  for (ir::BasicBlock *bb : bbs) {
    for (unsigned n = pick(4); n-- > 0;) {
      auto instr = std::make_unique<ir::Instr>();
      instr->op = ir::Opcode::Add;
      instr->dst = regs[pick(5)];
      instr->operands = {operand(), operand()};
      bb->append(std::move(instr));
    }
    auto term = std::make_unique<ir::Instr>();
    switch (pick(3)) {
    case 0:
      term->op = ir::Opcode::Ret;
      term->operands = {operand()};
      break;
    case 1:
      term->op = ir::Opcode::Br;
      term->target0 = bbs[pick(blocks)];
      break;
    default:
      term->op = ir::Opcode::CondBr;
      term->operands = {operand()};
      term->target0 = bbs[pick(blocks)];
      term->target1 = bbs[pick(blocks)];
      break;
    }
    bb->append(std::move(term));
  }
  return m;
}

TEST(Liveness, MatchesPathReference) {
  std::mt19937 rng(29);
  for (unsigned trial = 0; trial < 400; ++trial) {
    auto m = randomCfg(rng, 1 + trial % 8);
    expectMatchesPaths(*m->functions().front(),
                       "random CFG " + std::to_string(trial));
  }

  {
    // Irreducible: entry enters the a <-> c cycle at both blocks; x is
    // written only in c and read in a, y only read in c.
    ir::Module m;
    ir::Function *f = m.addFunction("f", 32);
    ir::VReg p = f->newVReg(1), x = f->newVReg(32), y = f->newVReg(32);
    f->params().push_back(p);
    ir::Builder b(*f);
    auto *entry = f->newBlock("entry");
    auto *a = f->newBlock("a");
    auto *c = f->newBlock("c");
    auto *exit = f->newBlock("exit");
    b.setInsertPoint(entry);
    b.emitCondBr(ir::Operand(p), a, c);
    b.setInsertPoint(a);
    ir::VReg sum = b.emitBinary(ir::Opcode::Add, ir::Operand(x),
                                ir::Operand(BitVector(32, 1)));
    b.emitCondBr(ir::Operand(p), c, exit);
    b.setInsertPoint(c);
    b.emitCopyTo(x, ir::Operand(y));
    b.emitBr(a);
    b.setInsertPoint(exit);
    b.emitRet(ir::Operand(sum));
    expectMatchesPaths(*f, "irreducible");
    ir::Liveness live(*f);
    EXPECT_EQ(live.liveIn(entry), (std::vector<unsigned>{p.id, x.id, y.id}));
    EXPECT_EQ(live.liveIn(c), (std::vector<unsigned>{p.id, y.id}));
  }

  for (const auto &wl : core::standardWorkloads()) {
    TypeContext types;
    DiagnosticEngine diags;
    auto ast = frontend(wl.source, types, diags);
    ASSERT_NE(ast, nullptr) << wl.name << diags.str();
    opt::inlineFunctions(*ast, types, diags);
    opt::removeUnusedFunctions(*ast, wl.top);
    auto module = ir::lowerToIR(*ast, diags);
    ASSERT_NE(module, nullptr) << wl.name << diags.str();
    for (int optimized = 0; optimized < 2; ++optimized) {
      if (optimized)
        opt::optimizeModule(*module);
      for (const auto &fn : module->functions())
        expectMatchesPaths(*fn, wl.name + (optimized ? " (optimized)"
                                                     : " (raw)"));
    }
  }

  {
    // A 100k-block chain: v is written in the first block and read in the
    // last, so it is live out of every block but the last.
    constexpr unsigned kBlocks = 100000;
    ir::Module m;
    ir::Function *f = m.addFunction("f", 32);
    ir::Builder b(*f);
    std::vector<ir::BasicBlock *> blocks;
    for (unsigned i = 0; i < kBlocks; ++i)
      blocks.push_back(f->newBlock(""));
    b.setInsertPoint(blocks[0]);
    ir::VReg v = b.emitConst(BitVector(32, 7));
    for (unsigned i = 0; i + 1 < kBlocks; ++i) {
      b.setInsertPoint(blocks[i]);
      b.emitBr(blocks[i + 1]);
    }
    b.setInsertPoint(blocks.back());
    b.emitRet(ir::Operand(v));
    ir::Liveness live(*f);
    const std::vector<unsigned> one{v.id}, none;
    EXPECT_EQ(live.liveIn(blocks[0]), none);
    for (unsigned i = 0; i + 1 < kBlocks; ++i)
      ASSERT_EQ(live.liveOut(blocks[i]), one) << i;
    for (unsigned i = 1; i < kBlocks; ++i)
      ASSERT_EQ(live.liveIn(blocks[i]), one) << i;
    EXPECT_EQ(live.liveOut(blocks.back()), none);
  }

  {
    // A 2k-deep loop nest: loop i's header reads its own counter and
    // enters loop i + 1 or leaves to loop i - 1's latch, which rewrites
    // counter i - 1.  Leaving loop i rewrites the counters of the loops
    // around it before they are read again, so header i holds counters
    // i..D-1 live, as does latch i on its way out, and latch i (which
    // rewrites counter i) holds counters i+1..D-1 live in.
    constexpr unsigned kDepth = 2000;
    ir::Module m;
    ir::Function *f = m.addFunction("f", 0);
    ir::Builder b(*f);
    auto *entry = f->newBlock("entry");
    std::vector<ir::BasicBlock *> heads, latches;
    std::vector<ir::VReg> counters;
    for (unsigned i = 0; i < kDepth; ++i) {
      heads.push_back(f->newBlock(""));
      latches.push_back(f->newBlock(""));
      counters.push_back(f->newVReg(32));
    }
    auto *exit = f->newBlock("exit");
    b.setInsertPoint(entry);
    for (ir::VReg c : counters)
      b.emitCopyTo(c, ir::Operand(BitVector(32, 0)));
    b.emitBr(heads[0]);
    for (unsigned i = 0; i < kDepth; ++i) {
      b.setInsertPoint(heads[i]);
      ir::VReg more = b.emitCompare(ir::Opcode::CmpLtS, ir::Operand(counters[i]),
                                    ir::Operand(BitVector(32, 1)));
      b.emitCondBr(ir::Operand(more),
                   i + 1 < kDepth ? heads[i + 1] : latches[i],
                   i > 0 ? latches[i - 1] : exit);
      b.setInsertPoint(latches[i]);
      b.emitCopyTo(counters[i], ir::Operand(BitVector(32, 1)));
      b.emitBr(heads[i]);
    }
    b.setInsertPoint(exit);
    b.emitRet();
    ir::Liveness live(*f);
    EXPECT_TRUE(live.liveIn(entry).empty());
    std::vector<unsigned> inner;
    for (ir::VReg c : counters)
      inner.push_back(c.id);
    for (unsigned i = 0; i < kDepth; ++i) {
      ASSERT_EQ(live.liveIn(heads[i]), inner) << i;
      ASSERT_EQ(live.liveOut(latches[i]), inner) << i;
      inner.erase(inner.begin());
      ASSERT_EQ(live.liveIn(latches[i]), inner) << i;
    }
  }
}

} // namespace
} // namespace c2h
