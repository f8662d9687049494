// The synthesizability analyzer: effect sets, par-race detection, channel
// protocol checking, pre-flight lints, and the determinism contract.
#include "analysis/analyzer.h"
#include "analysis/channels.h"
#include "analysis/effects.h"
#include "analysis/lints.h"
#include "analysis/race.h"
#include "core/c2h.h"
#include "ir/builder.h"
#include "opt/astclone.h"

#include <gtest/gtest.h>

using namespace c2h;

namespace {

struct Compiled {
  TypeContext types;
  std::unique_ptr<ast::Program> program;
};

std::unique_ptr<Compiled> compile(const std::string &source) {
  auto c = std::make_unique<Compiled>();
  DiagnosticEngine diags;
  c->program = frontend(source, c->types, diags);
  EXPECT_TRUE(c->program != nullptr) << diags.str();
  return c;
}

// Inline + lower, the way the engine prepares the module for the IR lints.
std::unique_ptr<ir::Module> lower(Compiled &c, const std::string &top) {
  DiagnosticEngine diags;
  opt::inlineFunctions(*c.program, c.types, diags);
  if (diags.hasErrors())
    return nullptr;
  opt::removeUnusedFunctions(*c.program, top);
  return ir::lowerToIR(*c.program, diags);
}

// All diagnostics in `report` whose code is `code`.
std::vector<analysis::Diagnostic> withCode(const analysis::Report &report,
                                           const std::string &code) {
  std::vector<analysis::Diagnostic> out;
  for (const auto &d : report.diagnostics())
    if (d.code == code)
      out.push_back(d);
  return out;
}

// ---------------------------------------------------------------------------
// Effect sets
// ---------------------------------------------------------------------------

TEST(Effects, ReadsAndWritesWithSites) {
  auto c = compile("int g;\n"
                   "int main(int a) { g = a + 1; return g; }");
  analysis::EffectAnalysis ea(*c->program);
  const ast::FuncDecl *fn = c->program->findFunction("main");
  analysis::EffectSet fx = ea.ofStmt(*fn->body);
  const ast::VarDecl *g = c->program->findGlobal("g");
  const analysis::VarAccess *access = fx.find(g);
  ASSERT_NE(access, nullptr);
  EXPECT_TRUE(access->write);
  EXPECT_TRUE(access->read);
  EXPECT_EQ(access->firstWrite.line, 2u);
  EXPECT_EQ(access->firstRead.line, 2u);
}

TEST(Effects, CallsExpandThroughSummaries) {
  auto c = compile("int g;\n"
                   "void bump() { g = g + 1; }\n"
                   "int main() { bump(); return g; }");
  analysis::EffectAnalysis ea(*c->program);
  const ast::FuncDecl *fn = c->program->findFunction("main");
  analysis::EffectSet fx = ea.ofStmt(*fn->body);
  const analysis::VarAccess *access = fx.find(c->program->findGlobal("g"));
  ASSERT_NE(access, nullptr);
  EXPECT_TRUE(access->write) << "call to bump() must carry g's write effect";
}

TEST(Effects, RecursiveSummariesConverge) {
  auto c = compile("int g;\n"
                   "void f(int n) { if (n > 0) { g = g + n; f(n - 1); } }\n"
                   "int main(int n) { f(n); return g; }");
  analysis::EffectAnalysis ea(*c->program);
  const analysis::EffectSet &summary =
      ea.summary(*c->program->findFunction("f"));
  const analysis::VarAccess *access =
      summary.find(c->program->findGlobal("g"));
  ASSERT_NE(access, nullptr);
  EXPECT_TRUE(access->write);
}

// opt::cloneProgram re-numbers every declaration; the analyzer must compute
// identical effect sets (and print them identically) on clone and original,
// for programs using par, channels, and delay.
TEST(Effects, CloneProgramPreservesEffectSets) {
  const char *sources[] = {
      // par with interprocedural effects
      "int a;\nint b;\n"
      "void left() { a = a + 1; }\n"
      "void right() { b = b + 2; }\n"
      "int main() { par { left(); right(); } return a + b; }",
      // channels: send/receive through a helper
      "chan<int> c;\nint out;\n"
      "void produce() { for (int i = 0; i < 4; i = i + 1) { c ! i; } }\n"
      "int main() { par { produce(); { for (int i = 0; i < 4; i = i + 1) "
      "{ int v; c ? v; out = out + v; } } } return out; }",
      // delay + arrays + pointers
      "int buf[8];\n"
      "int main(int n) {\n"
      "  int *p = &buf[0];\n"
      "  for (int i = 0; i < 8; i = i + 1) { delay(2); *p = i; }\n"
      "  return buf[0];\n"
      "}",
  };
  for (const char *src : sources) {
    auto c = compile(src);
    std::unique_ptr<ast::Program> clone = opt::cloneProgram(*c->program);
    analysis::EffectAnalysis original(*c->program);
    analysis::EffectAnalysis cloned(*clone);
    ASSERT_EQ(c->program->functions.size(), clone->functions.size());
    for (std::size_t i = 0; i < c->program->functions.size(); ++i) {
      SCOPED_TRACE(c->program->functions[i]->name);
      EXPECT_EQ(
          original.ofStmt(*c->program->functions[i]->body).str(),
          cloned.ofStmt(*clone->functions[i]->body).str());
      EXPECT_EQ(original.summary(*c->program->functions[i]).str(),
                cloned.summary(*clone->functions[i]).str());
    }
  }
}

// ---------------------------------------------------------------------------
// Par-race detection
// ---------------------------------------------------------------------------

TEST(Races, WriteWriteConflictWithBothSites) {
  auto c = compile("int x;\n"
                   "int main(int a) {\n"
                   "  par {\n"
                   "    x = a;\n"
                   "    x = a + 1;\n"
                   "  }\n"
                   "  return x;\n"
                   "}");
  analysis::EffectAnalysis ea(*c->program);
  analysis::Report report = analysis::checkParRaces(*c->program, ea);
  auto races = withCode(report, "C2H-RACE-001");
  ASSERT_EQ(races.size(), 1u);
  EXPECT_EQ(races[0].severity, analysis::Severity::Error);
  ASSERT_EQ(races[0].spans.size(), 2u);
  EXPECT_EQ(races[0].spans[0].loc.line, 4u);
  EXPECT_EQ(races[0].spans[1].loc.line, 5u);
  EXPECT_NE(races[0].message.find("'x'"), std::string::npos);
}

TEST(Races, ReadWriteConflict) {
  auto c = compile("int x;\nint y;\n"
                   "int main(int a) {\n"
                   "  par {\n"
                   "    x = a;\n"
                   "    y = x;\n"
                   "  }\n"
                   "  return y;\n"
                   "}");
  analysis::EffectAnalysis ea(*c->program);
  analysis::Report report = analysis::checkParRaces(*c->program, ea);
  EXPECT_EQ(withCode(report, "C2H-RACE-001").size(), 0u);
  auto races = withCode(report, "C2H-RACE-002");
  ASSERT_EQ(races.size(), 1u);
  EXPECT_EQ(races[0].severity, analysis::Severity::Error);
}

TEST(Races, DisjointBranchesAreClean) {
  auto c = compile("int x;\nint y;\n"
                   "int main(int a) { par { x = a; y = a + 1; } "
                   "return x + y; }");
  analysis::EffectAnalysis ea(*c->program);
  EXPECT_TRUE(analysis::checkParRaces(*c->program, ea).empty());
}

TEST(Races, ConflictThroughCalls) {
  auto c = compile("int g;\n"
                   "void writer(int v) { g = v; }\n"
                   "int main(int a) { par { writer(a); writer(a + 1); } "
                   "return g; }");
  analysis::EffectAnalysis ea(*c->program);
  analysis::Report report = analysis::checkParRaces(*c->program, ea);
  EXPECT_EQ(withCode(report, "C2H-RACE-001").size(), 1u);
}

TEST(Races, ConflictThroughArrayAliasing) {
  // Whole-array granularity: both branches write buf, even at (possibly)
  // different indices — conservatively a race.
  auto c = compile("int buf[4];\n"
                   "int main(int a) { par { buf[0] = a; buf[a] = 1; } "
                   "return buf[0]; }");
  analysis::EffectAnalysis ea(*c->program);
  EXPECT_EQ(
      withCode(analysis::checkParRaces(*c->program, ea), "C2H-RACE-001")
          .size(),
      1u);
}

TEST(Races, ChannelsAreSynchronizationNotRaces) {
  // Both branches name the same channel; that is the point of a channel.
  auto c = compile("chan<int> c;\n"
                   "int main() { int v; par { c ! 7; c ? v; } return v; }");
  analysis::EffectAnalysis ea(*c->program);
  EXPECT_TRUE(analysis::checkParRaces(*c->program, ea).empty());
}

// ---------------------------------------------------------------------------
// Channel protocol checking
// ---------------------------------------------------------------------------

TEST(Channels, SelfCommunicationInOneThread) {
  auto c = compile("chan<int> c;\n"
                   "int main() { int v; c ! 1; c ? v; return v; }");
  analysis::Report report = analysis::checkChannels(*c->program, "main");
  auto findings = withCode(report, "C2H-CHAN-001");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, analysis::Severity::Error);
}

TEST(Channels, SendWithoutReceiver) {
  auto c = compile("chan<int> c;\n"
                   "int main() { par { c ! 1; { int z; z = 0; } } "
                   "return 0; }");
  analysis::Report report = analysis::checkChannels(*c->program, "main");
  EXPECT_EQ(withCode(report, "C2H-CHAN-002").size(), 1u);
}

TEST(Channels, ReceiveWithoutSender) {
  auto c = compile("chan<int> c;\n"
                   "int main() { int v; par { { c ? v; } { int z; z = 0; } } "
                   "return v; }");
  analysis::Report report = analysis::checkChannels(*c->program, "main");
  EXPECT_EQ(withCode(report, "C2H-CHAN-003").size(), 1u);
}

TEST(Channels, UnusedChannelWarning) {
  auto c = compile("chan<int> unused;\n"
                   "int main(int a) { return a; }");
  analysis::Report report = analysis::checkChannels(*c->program, "main");
  auto findings = withCode(report, "C2H-CHAN-004");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, analysis::Severity::Warning);
}

TEST(Channels, CyclicRendezvousDeadlock) {
  // Branch 0 sends on a then b; branch 1 receives b then a: both block on
  // their first operation forever.
  auto c = compile("chan<int> a;\nchan<int> b;\n"
                   "int main() {\n"
                   "  int u; int v;\n"
                   "  par {\n"
                   "    { a ! 1; b ! 2; }\n"
                   "    { b ? u; a ? v; }\n"
                   "  }\n"
                   "  return u + v;\n"
                   "}");
  analysis::Report report = analysis::checkChannels(*c->program, "main");
  auto findings = withCode(report, "C2H-CHAN-005");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, analysis::Severity::Error);
  // The finding points at the par and at each blocked operation.
  EXPECT_GE(findings[0].spans.size(), 3u);
}

TEST(Channels, MismatchedRendezvousCounts) {
  auto c = compile(
      "chan<int> c;\n"
      "int main() {\n"
      "  int last = 0;\n"
      "  par {\n"
      "    { for (int i = 0; i < 4; i = i + 1) { c ! i; } }\n"
      "    { for (int i = 0; i < 3; i = i + 1) { int v; c ? v; last = v; } }\n"
      "  }\n"
      "  return last;\n"
      "}");
  analysis::Report report = analysis::checkChannels(*c->program, "main");
  auto findings = withCode(report, "C2H-CHAN-006");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, analysis::Severity::Error);
}

TEST(Channels, BalancedPipelineIsClean) {
  auto c = compile(
      "chan<int> c;\nint out;\n"
      "void produce() { for (int i = 0; i < 8; i = i + 1) { c ! i; } }\n"
      "void consume() { for (int i = 0; i < 8; i = i + 1) "
      "{ int v; c ? v; out = out + v; } }\n"
      "int main() { par { produce(); consume(); } return out; }");
  analysis::Report report = analysis::checkChannels(*c->program, "main");
  EXPECT_FALSE(report.hasErrors()) << report.renderText();
}

TEST(Channels, DynamicCountsStaySilent) {
  // Counts depend on data: no exact verdict, so no (possibly false) finding.
  auto c = compile(
      "chan<int> c;\nint out;\n"
      "int main(int n) {\n"
      "  par {\n"
      "    { for (int i = 0; i < n; i = i + 1) { c ! i; } }\n"
      "    { for (int i = 0; i < n; i = i + 1) { int v; c ? v; "
      "out = out + v; } }\n"
      "  }\n"
      "  return out;\n"
      "}");
  analysis::Report report = analysis::checkChannels(*c->program, "main");
  EXPECT_FALSE(report.hasErrors()) << report.renderText();
}

// ---------------------------------------------------------------------------
// Lints
// ---------------------------------------------------------------------------

TEST(Lints, UnboundedLoopSeverityIsCallerChosen) {
  auto c = compile("int main(int n) { int s = 0; while (n > 0) "
                   "{ s = s + n; n = n - 1; } return s; }");
  analysis::Report asNote =
      analysis::lintUnboundedLoops(*c->program, analysis::Severity::Note);
  auto notes = withCode(asNote, "C2H-LOOP-001");
  ASSERT_EQ(notes.size(), 1u);
  EXPECT_EQ(notes[0].severity, analysis::Severity::Note);
  analysis::Report asError =
      analysis::lintUnboundedLoops(*c->program, analysis::Severity::Error);
  EXPECT_TRUE(asError.hasErrors());
}

TEST(Lints, StaticForLoopIsBounded) {
  auto c = compile("int main() { int s = 0; for (int i = 0; i < 8; "
                   "i = i + 1) { s = s + i; } return s; }");
  analysis::Report report =
      analysis::lintUnboundedLoops(*c->program, analysis::Severity::Error);
  EXPECT_TRUE(report.empty()) << report.renderText();
}

TEST(Lints, WidthTruncationWarns) {
  auto c = compile("int<8> g;\n"
                   "int main(int a) { g = a; return g; }");
  analysis::Report report = analysis::lintWidthTruncation(*c->program);
  auto findings = withCode(report, "C2H-WIDTH-001");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].severity, analysis::Severity::Warning);
}

TEST(Lints, FittingConstantDoesNotWarn) {
  auto c = compile("int<8> g;\n"
                   "int main() { g = 100; return g; }");
  analysis::Report report = analysis::lintWidthTruncation(*c->program);
  EXPECT_TRUE(report.empty()) << report.renderText();
}

// Build:  entry: condbr %p -> bb1, bb2 / bb1: %x = copy 1; br bb2 /
// bb2: ret %x.  %x is defined on only one path into bb2 — a must-init
// violation the dataflow has to catch.
TEST(Lints, UninitializedReadOnIr) {
  ir::Module module;
  ir::Function *fn = module.addFunction("f", 32);
  ir::VReg p = fn->newVReg(1);
  fn->params().push_back(p);
  ir::VReg x = fn->newVReg(32);
  ir::BasicBlock *entry = fn->newBlock("entry");
  ir::BasicBlock *bb1 = fn->newBlock("bb1");
  ir::BasicBlock *bb2 = fn->newBlock("bb2");
  auto instr = [&](ir::Opcode op) {
    auto i = std::make_unique<ir::Instr>();
    i->op = op;
    i->loc = SourceLoc{1, 1};
    return i;
  };
  auto condbr = instr(ir::Opcode::CondBr);
  condbr->operands.push_back(ir::Operand(p));
  condbr->target0 = bb1;
  condbr->target1 = bb2;
  entry->append(std::move(condbr));
  auto def = instr(ir::Opcode::Copy);
  def->dst = x;
  def->operands.push_back(ir::Operand(BitVector(32, 1)));
  bb1->append(std::move(def));
  auto br = instr(ir::Opcode::Br);
  br->target0 = bb2;
  bb1->append(std::move(br));
  auto ret = instr(ir::Opcode::Ret);
  ret->operands.push_back(ir::Operand(x));
  bb2->append(std::move(ret));

  analysis::Report report = analysis::lintUninitReads(module);
  EXPECT_EQ(withCode(report, "C2H-UNINIT-001").size(), 1u)
      << report.renderText();
}

// Four hand-built functions, one case each.  `loop` reads x twice at the
// top of a loop body that writes x only afterwards: unwritten on the first
// iteration, and one finding although the solver revisits the block around
// the back edge.  `dead` reads y only in a block the entry cannot reach.
// `diamond` writes z on both arms before reading it.  `param` reads its
// parameter.  Only the loop's read is reported.
TEST(Lints, UninitReadsFollowPaths) {
  ir::Module module;
  auto at = [](ir::Instr *instr, unsigned line) { instr->loc = {line, 1}; };
  const ir::Operand one(BitVector(32, 1));

  ir::Function *loop = module.addFunction("loop", 32);
  {
    ir::VReg p = loop->newVReg(1), x = loop->newVReg(32);
    loop->params().push_back(p);
    ir::Builder b(*loop);
    auto *entry = loop->newBlock("entry");
    auto *head = loop->newBlock("head");
    auto *exit = loop->newBlock("exit");
    b.setInsertPoint(entry);
    b.emitBr(head);
    b.setInsertPoint(head);
    ir::VReg sum = b.emitBinary(ir::Opcode::Add, ir::Operand(x), one);
    at(head->instrs().back().get(), 3);
    b.emitBinary(ir::Opcode::Add, ir::Operand(x), ir::Operand(sum));
    at(head->instrs().back().get(), 3);
    b.emitCopyTo(x, ir::Operand(sum));
    b.emitCondBr(ir::Operand(p), head, exit);
    b.setInsertPoint(exit);
    b.emitRet(ir::Operand(x));
    at(exit->instrs().back().get(), 4);
  }

  ir::Function *dead = module.addFunction("dead", 32);
  {
    ir::VReg y = dead->newVReg(32);
    ir::Builder b(*dead);
    auto *entry = dead->newBlock("entry");
    auto *unreached = dead->newBlock("unreached");
    b.setInsertPoint(entry);
    b.emitRet(one);
    b.setInsertPoint(unreached);
    b.emitRet(ir::Operand(y));
    at(unreached->instrs().back().get(), 10);
  }

  ir::Function *diamond = module.addFunction("diamond", 32);
  {
    ir::VReg p = diamond->newVReg(1), z = diamond->newVReg(32);
    diamond->params().push_back(p);
    ir::Builder b(*diamond);
    auto *entry = diamond->newBlock("entry");
    auto *left = diamond->newBlock("left");
    auto *right = diamond->newBlock("right");
    auto *join = diamond->newBlock("join");
    b.setInsertPoint(entry);
    b.emitCondBr(ir::Operand(p), left, right);
    b.setInsertPoint(left);
    b.emitCopyTo(z, one);
    b.emitBr(join);
    b.setInsertPoint(right);
    b.emitCopyTo(z, ir::Operand(BitVector(32, 2)));
    b.emitBr(join);
    b.setInsertPoint(join);
    b.emitRet(ir::Operand(z));
    at(join->instrs().back().get(), 20);
  }

  ir::Function *param = module.addFunction("param", 32);
  {
    ir::VReg a = param->newVReg(32);
    param->params().push_back(a);
    ir::Builder b(*param);
    b.setInsertPoint(param->newBlock("entry"));
    b.emitRet(ir::Operand(a));
    at(param->entry()->instrs().back().get(), 30);
  }

  auto findings = withCode(analysis::lintUninitReads(module), "C2H-UNINIT-001");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].primaryLoc().line, 3u);
  EXPECT_NE(findings[0].message.find("'loop'"), std::string::npos)
      << findings[0].message;
}

// uC gives declared-but-uninitialized locals fresh-zero semantics (the
// lowering stores 0, matching the interpreter), so a source-level "maybe
// uninitialized" local is NOT a finding on the lowered IR.
TEST(Lints, LoweredLocalsAreZeroInitialized) {
  auto c = compile("int main(int a) {\n"
                   "  int x;\n"
                   "  if (a > 0) { x = 1; }\n"
                   "  return x;\n"
                   "}");
  auto module = lower(*c, "main");
  ASSERT_NE(module, nullptr);
  analysis::Report report = analysis::lintUninitReads(*module);
  EXPECT_TRUE(report.empty()) << report.renderText();
}

// ---------------------------------------------------------------------------
// The composed analyzer and its contracts
// ---------------------------------------------------------------------------

TEST(Analyzer, ComposesAllAnalysesSorted) {
  auto c = compile("int x;\nchan<int> dead;\n"
                   "int main(int a) {\n"
                   "  par { x = a; x = a + 1; }\n"
                   "  return x;\n"
                   "}");
  analysis::Report report = analysis::analyzeProgram(*c->program);
  EXPECT_TRUE(report.hasErrors());
  EXPECT_EQ(withCode(report, "C2H-RACE-001").size(), 1u);
  EXPECT_EQ(withCode(report, "C2H-CHAN-004").size(), 1u);
  // Sorted: primary locations are non-decreasing.
  const auto &ds = report.diagnostics();
  for (std::size_t i = 1; i < ds.size(); ++i)
    EXPECT_LE(ds[i - 1].primaryLoc().line, ds[i].primaryLoc().line);
}

TEST(Analyzer, RenderingIsByteStable) {
  const char *src = "int x;\nchan<int> c;\n"
                    "int main(int a) {\n"
                    "  par { x = a; x = a + 1; }\n"
                    "  int v; c ! 1; c ? v;\n"
                    "  return x + v;\n"
                    "}";
  auto c1 = compile(src);
  auto c2 = compile(src);
  std::unique_ptr<ast::Program> clone = opt::cloneProgram(*c1->program);
  std::string r1 = analysis::analyzeProgram(*c1->program).renderJson();
  std::string r2 = analysis::analyzeProgram(*c2->program).renderJson();
  std::string r3 = analysis::analyzeProgram(*clone).renderJson();
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(r1, r3);
  std::string t1 = analysis::analyzeProgram(*c1->program).renderText();
  std::string t2 = analysis::analyzeProgram(*c2->program).renderText();
  EXPECT_EQ(t1, t2);
}

TEST(Analyzer, PreflightReturnsOnlyErrors) {
  auto c = compile("int x;\nchan<int> dead;\n"
                   "int main(int a) { par { x = a; x = a + 1; } return x; }");
  analysis::Report report =
      analysis::preflightFlow(*c->program, "main", false);
  EXPECT_FALSE(report.empty());
  for (const auto &d : report.diagnostics())
    EXPECT_EQ(d.severity, analysis::Severity::Error) << d.code;
  // The unused-channel warning must not appear.
  EXPECT_EQ(withCode(report, "C2H-CHAN-004").size(), 0u);
}

// The survey's ground truth: the analyzer reports no error-severity finding
// on any registry workload — the accepted (flow, workload) matrix must not
// shrink because of a false positive.
TEST(Analyzer, NoErrorsOnAnyStandardWorkload) {
  for (const auto &w : core::standardWorkloads()) {
    SCOPED_TRACE(w.name);
    auto c = compile(w.source);
    analysis::AnalyzeOptions opts;
    opts.top = w.top;
    auto module = lower(*c, w.top);
    // Re-compile: lower() mutated the AST by inlining.
    auto fresh = compile(w.source);
    analysis::Report report =
        analysis::analyzeProgram(*fresh->program, module.get(), opts);
    EXPECT_FALSE(report.hasErrors()) << report.renderText();
  }
}

} // namespace
