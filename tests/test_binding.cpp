// Register-binding tests: storage identification, interference soundness
// (via random programs + executability of the merge), and area accounting.
#include "frontend/sema.h"
#include "ir/exec.h"
#include "ir/liveness.h"
#include "ir/lower.h"
#include "opt/irpasses.h"
#include "rtl/binding.h"

#include <gtest/gtest.h>

namespace c2h {
namespace {

std::unique_ptr<ir::Module> lowered(const std::string &src) {
  TypeContext types;
  DiagnosticEngine diags;
  auto program = frontend(src, types, diags);
  EXPECT_NE(program, nullptr) << diags.str();
  auto module = ir::lowerToIR(*program, diags);
  EXPECT_NE(module, nullptr) << diags.str();
  opt::optimizeModule(*module);
  return module;
}

TEST(Binding, DisjointLifetimesShare) {
  // x is dead before y is born: one register suffices for both.
  auto m = lowered(R"(
    int f(int a) {
      int x = a * 3;
      int r1 = 0;
      for (int i = 0; i < 4; i = i + 1) { r1 = r1 + x; }
      int y = r1 * 5;
      int r2 = 0;
      for (int i = 0; i < 4; i = i + 1) { r2 = r2 + y; }
      return r2;
    })");
  sched::TechLibrary lib;
  auto binding = rtl::bindRegisters(*m->findFunction("f"), lib);
  EXPECT_LT(binding.registerCount(), binding.storageValues);
}

TEST(Binding, SimultaneouslyLiveValuesDoNotShare) {
  auto m = lowered(R"(
    int f(int a, int b) {
      int x = a * 3;
      int y = b * 5;
      int s = 0;
      for (int i = 0; i < 4; i = i + 1) { s = s + x + y; }
      return s;
    })");
  sched::TechLibrary lib;
  const ir::Function *f = m->findFunction("f");
  auto binding = rtl::bindRegisters(*f, lib);
  // Find the vregs holding x and y: both live into the loop, so they must
  // land in different physical registers.  We verify the general property:
  // values co-live at any block boundary never share.
  ir::Liveness liveness(*f);
  for (const auto &block : f->blocks()) {
    const std::vector<unsigned> &in = liveness.liveIn(block.get());
    std::set<unsigned> boundary(in.begin(), in.end());
    for (unsigned r : liveness.liveOut(block.get()))
      boundary.insert(r);
    for (unsigned a : boundary)
      for (unsigned b : boundary) {
        if (a >= b)
          continue;
        auto ia = binding.assignment.find(a);
        auto ib = binding.assignment.find(b);
        if (ia != binding.assignment.end() && ib != binding.assignment.end()) {
          EXPECT_NE(ia->second, ib->second)
              << "co-live values " << a << " and " << b << " share";
        }
      }
  }
}

TEST(Binding, RegisterWidthCoversAllMembers) {
  auto m = lowered(R"(
    int f(int a) {
      int<8> x = (int<8>)a;
      int s = 0;
      for (int i = 0; i < 3; i = i + 1) { s = s + x; }
      int<24> y = (int<24>)s;
      int t = 0;
      for (int i = 0; i < 3; i = i + 1) { t = t + (int)y; }
      return t;
    })");
  sched::TechLibrary lib;
  const ir::Function *f = m->findFunction("f");
  auto binding = rtl::bindRegisters(*f, lib);
  std::map<unsigned, unsigned> width;
  for (const auto &p : f->params())
    width[p.id] = p.width;
  for (const auto &block : f->blocks())
    for (const auto &instr : block->instrs())
      if (instr->dst)
        width[instr->dst->id] = instr->dst->width;
  for (const auto &[vreg, reg] : binding.assignment)
    EXPECT_GE(binding.registers[reg], width[vreg]) << "vreg " << vreg;
}

TEST(Binding, AreaNeverGrowsFromSharingRegisters) {
  auto m = lowered(R"(
    int f(int a, int b) {
      int acc = 0;
      for (int i = 0; i < 8; i = i + 1) {
        int t = a * i;
        acc = acc + t;
      }
      for (int j = 0; j < 8; j = j + 1) {
        int u = b * j;
        acc = acc ^ u;
      }
      return acc;
    })");
  sched::TechLibrary lib;
  auto binding = rtl::bindRegisters(*m->findFunction("f"), lib);
  EXPECT_LE(binding.registers.size(), binding.originalWidths.size());
  // Register bits strictly shrink or stay equal; mux overhead is reported
  // separately inside areaAfter.
  double bitsBefore = 0, bitsAfter = 0;
  for (unsigned w : binding.originalWidths)
    bitsBefore += w;
  for (unsigned w : binding.registers)
    bitsAfter += w;
  EXPECT_LE(bitsAfter, bitsBefore);
}

TEST(Binding, StrSummarizes) {
  auto m = lowered("int f(int a) { return a + 1; }");
  sched::TechLibrary lib;
  auto binding = rtl::bindRegisters(*m->findFunction("f"), lib);
  EXPECT_NE(binding.str().find("->"), std::string::npos);
}

TEST(Binding, SequentialPhasesCompressWell) {
  // Ten sequential accumulation phases; lifetimes are nested chains, so
  // sharing should compress registers substantially.
  std::string src = "int f(int a) {\n  int r = a;\n";
  for (int p = 0; p < 10; ++p) {
    std::string v = "t" + std::to_string(p);
    src += "  int " + v + " = r * " + std::to_string(p + 2) + ";\n";
    src += "  r = 0;\n  for (int i = 0; i < 4; i = i + 1) { r = r + " + v +
           "; }\n";
  }
  src += "  return r;\n}\n";
  auto m = lowered(src);
  sched::TechLibrary lib;
  auto binding = rtl::bindRegisters(*m->findFunction("f"), lib);
  EXPECT_LE(binding.registerCount() * 2, binding.storageValues)
      << binding.str();
}

} // namespace
} // namespace c2h
