// Randomized end-to-end differential testing.
//
// A seeded generator emits random type-correct uC programs (nested
// control flow, mixed-width arithmetic, arrays, compound assignments);
// each program is executed by the reference interpreter, the IR executor
// (optimized and unoptimized), the cycle-accurate RTL simulator under two
// scheduling policies, and — through the emitted Verilog text — both vsim
// backends (the event-driven evaluator and the cycle-compiled bytecode
// VM).
// All executions must agree on the return value and on every global, and
// every vsim engine must match the FSMD simulator's exact cycle count —
// any divergence is a compiler bug by construction.
#include "analysis/range.h"
#include "frontend/sema.h"
#include "interp/interp.h"
#include "ir/exec.h"
#include "ir/lower.h"
#include "opt/ifconvert.h"
#include "opt/irpasses.h"
#include "rtl/sim.h"
#include "support/text.h"
#include "vsim/cosim.h"

#include "testutil.h"

#include <gtest/gtest.h>

#include <sstream>

namespace c2h {
namespace {

// The engines under differential test.  The loops below additionally
// assert that the bytecode VM never silently falls back to the event
// engine.
constexpr vsim::SimEngine kFuzzEngines[] = {vsim::SimEngine::Event,
                                            vsim::SimEngine::Compiled};

class ProgramGenerator {
public:
  explicit ProgramGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string generate() {
    out_.str("");
    depth_ = 0;
    loops_ = 0;
    vars_.clear();
    out_ << "int acc;\n";
    out_ << "int mem[8];\n";
    out_ << "int main(int a0, int a1) {\n";
    vars_ = {"a0", "a1"};
    indent_ = 1;
    // A few local declarations of assorted widths.
    unsigned locals = 2 + pick(3);
    for (unsigned i = 0; i < locals; ++i) {
      std::string name = "v" + std::to_string(i);
      const char *type = pickOne({"int", "uint", "int<8>", "uint<12>",
                                  "int<20>"});
      line(std::string(type) + " " + name + " = " + expr(2) + ";");
      vars_.push_back(name);
    }
    unsigned stmts = 3 + pick(5);
    for (unsigned i = 0; i < stmts; ++i)
      statement();
    line("return acc + " + expr(2) + ";");
    indent_ = 0;
    out_ << "}\n";
    return out_.str();
  }

private:
  unsigned pick(unsigned bound) {
    return static_cast<unsigned>(rng_.nextBelow(bound));
  }
  const char *pickOne(std::initializer_list<const char *> options) {
    auto it = options.begin();
    std::advance(it, pick(static_cast<unsigned>(options.size())));
    return *it;
  }
  // Any variable, for reads.
  std::string var() {
    unsigned total = static_cast<unsigned>(vars_.size() + ivs_.size());
    unsigned i = pick(total);
    return i < vars_.size() ? vars_[i] : ivs_[i - vars_.size()];
  }
  // Induction variables are read-only: writing them could unbound loops.
  std::string writable() {
    return vars_[pick(static_cast<unsigned>(vars_.size()))];
  }

  void line(const std::string &text) {
    for (unsigned i = 0; i < indent_; ++i)
      out_ << "  ";
    out_ << text << "\n";
  }

  std::string literal() {
    static const char *lits[] = {"0", "1", "2", "3", "7", "13", "255",
                                 "-1", "-8", "100000", "0x5A5A"};
    return lits[pick(sizeof(lits) / sizeof(lits[0]))];
  }

  std::string expr(unsigned depth) {
    if (depth == 0 || pick(3) == 0)
      return pick(2) ? var() : literal();
    switch (pick(9)) {
    case 0: return "(" + expr(depth - 1) + " + " + expr(depth - 1) + ")";
    case 1: return "(" + expr(depth - 1) + " - " + expr(depth - 1) + ")";
    case 2: return "(" + expr(depth - 1) + " * " + expr(depth - 1) + ")";
    case 3: return "(" + expr(depth - 1) + " & " + expr(depth - 1) + ")";
    case 4: return "(" + expr(depth - 1) + " ^ " + expr(depth - 1) + ")";
    case 5: return "(" + expr(depth - 1) + " >> (" + expr(depth - 1) +
                   " & 15))";
    case 6: // division guarded against zero
      return "(" + expr(depth - 1) + " / ((" + expr(depth - 1) +
             " & 7) | 1))";
    case 7:
      return "(" + expr(depth - 1) + (pick(2) ? " < " : " == ") +
             expr(depth - 1) + " ? " + expr(depth - 1) + " : " +
             expr(depth - 1) + ")";
    default:
      return "mem[(" + expr(depth - 1) + ") & 7]";
    }
  }

  void statement() {
    if (depth_ > 2) {
      assignment();
      return;
    }
    switch (pick(6)) {
    case 0: { // if / if-else
      ++depth_;
      line("if (" + expr(2) + (pick(2) ? " < " : " != ") + expr(2) + ") {");
      ++indent_;
      assignment();
      if (pick(2))
        assignment();
      --indent_;
      if (pick(2)) {
        line("} else {");
        ++indent_;
        assignment();
        --indent_;
      }
      line("}");
      --depth_;
      return;
    }
    case 1: { // bounded for loop
      if (loops_ >= 3) {
        assignment();
        return;
      }
      ++loops_;
      ++depth_;
      std::string iv = "i" + std::to_string(loops_);
      unsigned bound = 2 + pick(6);
      line("for (int " + iv + " = 0; " + iv + " < " +
           std::to_string(bound) + "; " + iv + " = " + iv + " + 1) {");
      ++indent_;
      ivs_.push_back(iv);
      assignment();
      if (pick(2))
        statement();
      ivs_.pop_back();
      --indent_;
      line("}");
      --depth_;
      return;
    }
    case 2: // memory write
      line("mem[(" + expr(1) + ") & 7] = " + expr(2) + ";");
      return;
    case 3: // compound assignment
      line(writable() + " " + pickOne({"+=", "-=", "^=", "&=", "|="}) + " " +
           expr(2) + ";");
      return;
    case 4: // accumulate into the checked global
      line("acc = acc ^ (" + expr(2) + ");");
      return;
    default:
      assignment();
      return;
    }
  }

  void assignment() { line(writable() + " = " + expr(2) + ";"); }

  SplitMix64 rng_;
  std::ostringstream out_;
  std::vector<std::string> vars_;
  std::vector<std::string> ivs_;
  unsigned indent_ = 0;
  unsigned depth_ = 0;
  unsigned loops_ = 0;
};

class FuzzParity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzParity, FiveWayAgreement) {
  ProgramGenerator gen(GetParam());
  std::string source = gen.generate();
  SCOPED_TRACE(source);

  TypeContext types;
  DiagnosticEngine diags;
  auto program = frontend(source, types, diags);
  ASSERT_NE(program, nullptr) << diags.str();

  auto rawModule = ir::lowerToIR(*program, diags);
  ASSERT_NE(rawModule, nullptr) << diags.str();
  ASSERT_TRUE(ir::verify(*rawModule).empty());

  // Static range analysis over the raw IR: generator output is known-good,
  // so no error-severity finding may fire, and every claim the analysis
  // makes (intervals, widths, reachability, decided branches) is replayed
  // against concrete executions in the rounds below — zero contradictions
  // allowed.
  analysis::RangeAnalysis ranges = analysis::analyzeRanges(*rawModule);
  analysis::Report rangeReport = analysis::checkRanges(*rawModule, ranges);
  EXPECT_EQ(rangeReport.errorCount(), 0u) << rangeReport.renderText();
  const ir::Function *rawMain = rawModule->findFunction("main");
  ASSERT_NE(rawMain, nullptr);
  opt::WidthInference rangedWidths =
      analysis::inferWidthsWithRanges(*rawModule, *rawMain, ranges);

  // Optimized + if-converted variant.
  auto optModule = ir::lowerToIR(*program, diags);
  opt::optimizeModule(*optModule);
  opt::ifConvert(*optModule);
  opt::optimizeModule(*optModule);
  auto problems = ir::verify(*optModule);
  ASSERT_TRUE(problems.empty()) << problems.front();

  sched::TechLibrary lib;
  sched::SchedOptions relaxed; // defaults
  sched::SchedOptions tight;
  tight.clockNs = 0.7;
  tight.resources.limits[sched::FuClass::Alu] = 1;
  tight.resources.limits[sched::FuClass::Mult] = 1;
  tight.resources.limits[sched::FuClass::Shifter] = 1;
  rtl::Design designA = rtl::buildDesign(*optModule, "main", lib, relaxed);
  rtl::Design designB = rtl::buildDesign(*optModule, "main", lib, tight);

  // Third witness: the emitted Verilog text, re-executed by vsim.  Emit
  // and elaborate once per design; each run() is a fresh simulation.
  vsim::Cosimulation cosimA(designA);
  vsim::Cosimulation cosimB(designB);
  ASSERT_TRUE(cosimA.valid()) << cosimA.error();
  ASSERT_TRUE(cosimB.valid()) << cosimB.error();

  SplitMix64 argRng(GetParam() * 31 + 7);
  for (int round = 0; round < 3; ++round) {
    std::vector<BitVector> args{
        BitVector(32, argRng.next() & 0xffff),
        BitVector::fromInt(32, static_cast<std::int32_t>(argRng.next()))};

    Interpreter interp(*program);
    auto golden = interp.call("main", args);
    ASSERT_TRUE(golden.ok) << golden.error;

    ir::IRExecutor rawExec(*rawModule);
    auto raw = rawExec.call("main", args);
    ASSERT_TRUE(raw.ok) << raw.error;
    EXPECT_EQ(golden.returnValue.toStringHex(),
              raw.returnValue.toStringHex())
        << "raw IR divergence";

    auto claims = testutil::checkStaticClaims(*rawModule, *rawMain, ranges,
                                              &rangedWidths, args);
    for (const auto &v : claims.violations)
      ADD_FAILURE() << "contradicted static claim: " << v;

    ir::IRExecutor optExec(*optModule);
    auto opt = optExec.call("main", args);
    ASSERT_TRUE(opt.ok) << opt.error;
    EXPECT_EQ(golden.returnValue.toStringHex(),
              opt.returnValue.toStringHex())
        << "optimized IR divergence";

    for (auto [design, cosim] : {std::pair(&designA, &cosimA),
                                 std::pair(&designB, &cosimB)}) {
      rtl::Simulator sim(*design);
      auto r = sim.run(args);
      ASSERT_TRUE(r.ok) << r.error;
      EXPECT_EQ(golden.returnValue.toStringHex(),
                r.returnValue.toStringHex())
          << "RTL divergence";
      auto gm = interp.readGlobal("mem");
      auto rm = sim.readGlobal("mem");
      ASSERT_EQ(gm.size(), rm.size());
      for (std::size_t i = 0; i < gm.size(); ++i)
        EXPECT_EQ(gm[i].toStringHex(), rm[i].toStringHex())
            << "mem[" << i << "] divergence";
      // vsim against both designs, once per engine — the full
      // differential: interpreter == FSMD == vsim-event == vsim-compiled
      // on values and exact cycle counts.
      for (auto engine : kFuzzEngines) {
        vsim::CosimOptions vopts;
        vopts.engine = engine;
        auto v = cosim->run(args, vopts);
        ASSERT_TRUE(v.ok) << v.error;
        if (engine == vsim::SimEngine::Compiled) {
          ASSERT_EQ(v.engine, vsim::SimEngine::Compiled)
              << "compiled engine fell back: " << cosim->compileNote();
        }
        EXPECT_EQ(golden.returnValue.resize(32, false).toStringHex(),
                  v.returnValue.resize(32, false).toStringHex())
            << "vsim divergence";
        EXPECT_EQ(r.cycles, v.cycles) << "vsim cycle divergence";
        auto vm = cosim->readGlobal("mem");
        ASSERT_EQ(gm.size(), vm.size());
        for (std::size_t i = 0; i < gm.size(); ++i)
          EXPECT_EQ(gm[i].toStringHex(), vm[i].toStringHex())
              << "vsim mem[" << i << "] divergence";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzParity,
                         ::testing::Range<std::uint64_t>(1, 41));

// ---------------------------------------------------------------------------
// Concurrent fuzzing: random but *deterministic* parallel programs —
// par branches write disjoint global slices, channels are generated in
// matched send/receive pairs — compared interpreter vs. RTL simulation.
// ---------------------------------------------------------------------------

class ConcurrentGenerator {
public:
  explicit ConcurrentGenerator(std::uint64_t seed) : rng_(seed) {}

  std::string generate() {
    unsigned branches = 2 + pick(3);       // 2..4 parallel branches
    unsigned items = 4 + pick(5);          // tokens per pipe
    bool usePipe = pick(2) == 0;
    std::ostringstream out;
    for (unsigned b = 0; b < branches; ++b)
      out << "int g" << b << "[8];\n";
    if (usePipe)
      out << "chan<int> pipe;\nint sink[16];\n";
    out << "int main(int a) {\n  par {\n";
    for (unsigned b = 0; b < branches; ++b) {
      unsigned mul = 1 + pick(9);
      unsigned add = pick(17);
      out << "    { for (int i = 0; i < 8; i = i + 1) { g" << b
          << "[i] = (a + i) * " << mul << " + " << add << "; } }\n";
    }
    if (usePipe) {
      out << "    { for (int i = 0; i < " << items
          << "; i = i + 1) { pipe ! (a * i + " << pick(7) << "); } }\n";
      out << "    { for (int i = 0; i < " << items
          << "; i = i + 1) { int v; pipe ? v; sink[i & 15] = v; } }\n";
    }
    out << "  }\n  int acc = 0;\n";
    for (unsigned b = 0; b < branches; ++b)
      out << "  for (int i = 0; i < 8; i = i + 1) { acc = acc ^ (g" << b
          << "[i] + i); }\n";
    if (usePipe)
      out << "  for (int i = 0; i < 16; i = i + 1) { acc = acc + sink[i]; }\n";
    out << "  return acc;\n}\n";
    globals_.clear();
    for (unsigned b = 0; b < branches; ++b)
      globals_.push_back("g" + std::to_string(b));
    if (usePipe)
      globals_.push_back("sink");
    return out.str();
  }

  const std::vector<std::string> &globals() const { return globals_; }

private:
  unsigned pick(unsigned bound) {
    return static_cast<unsigned>(rng_.nextBelow(bound));
  }
  SplitMix64 rng_;
  std::vector<std::string> globals_;
};

class ConcurrentFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ConcurrentFuzz, InterpreterAndRtlAgree) {
  ConcurrentGenerator gen(GetParam() * 1007 + 5);
  std::string source = gen.generate();
  SCOPED_TRACE(source);

  TypeContext types;
  DiagnosticEngine diags;
  auto program = frontend(source, types, diags);
  ASSERT_NE(program, nullptr) << diags.str();
  auto module = ir::lowerToIR(*program, diags);
  ASSERT_NE(module, nullptr) << diags.str();
  opt::optimizeModule(*module);
  ASSERT_TRUE(ir::verify(*module).empty());

  sched::TechLibrary lib;
  rtl::Design design = rtl::buildDesign(*module, "main", lib, {});
  vsim::Cosimulation cosim(design);
  ASSERT_TRUE(cosim.valid()) << cosim.error();

  SplitMix64 argRng(GetParam());
  for (int round = 0; round < 2; ++round) {
    std::vector<BitVector> args{
        BitVector::fromInt(32, static_cast<std::int32_t>(argRng.next()))};
    Interpreter interp(*program);
    rtl::Simulator sim(design);
    auto r0 = interp.call("main", args);
    auto r1 = sim.run(args);
    ASSERT_TRUE(r0.ok) << r0.error;
    ASSERT_TRUE(r1.ok) << r1.error;
    EXPECT_EQ(r0.returnValue.toStringHex(), r1.returnValue.toStringHex());
    // The par/channel designs run under both vsim engines too.
    for (auto engine : kFuzzEngines) {
      vsim::CosimOptions vopts;
      vopts.engine = engine;
      auto r2 = cosim.run(args, vopts);
      ASSERT_TRUE(r2.ok) << r2.error;
      if (engine == vsim::SimEngine::Compiled) {
        ASSERT_EQ(r2.engine, vsim::SimEngine::Compiled)
            << "compiled engine fell back: " << cosim.compileNote();
      }
      EXPECT_EQ(r0.returnValue.resize(32, false).toStringHex(),
                r2.returnValue.resize(32, false).toStringHex())
          << "vsim divergence";
      EXPECT_EQ(r1.cycles, r2.cycles) << "vsim cycle divergence";
      for (const auto &g : gen.globals()) {
        auto gi = interp.readGlobal(g);
        auto gr = sim.readGlobal(g);
        auto gv = cosim.readGlobal(g);
        ASSERT_EQ(gi.size(), gr.size()) << g;
        ASSERT_EQ(gi.size(), gv.size()) << g;
        for (std::size_t i = 0; i < gi.size(); ++i) {
          EXPECT_EQ(gi[i].toStringHex(), gr[i].toStringHex())
              << g << "[" << i << "]";
          EXPECT_EQ(gi[i].toStringHex(), gv[i].toStringHex())
              << "vsim " << g << "[" << i << "]";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConcurrentFuzz,
                         ::testing::Range<std::uint64_t>(1, 21));

} // namespace
} // namespace c2h
