// Core-module tests: the workload registry, golden-model runner, and the
// cross-flow comparator's contract.
#include "core/c2h.h"

#include <gtest/gtest.h>

#include <set>

namespace c2h {
namespace {

TEST(Workloads, RegistryIsWellFormed) {
  const auto &suite = core::standardWorkloads();
  EXPECT_GE(suite.size(), 15u);
  std::set<std::string> names;
  for (const auto &w : suite) {
    EXPECT_TRUE(names.insert(w.name).second) << "duplicate " << w.name;
    EXPECT_FALSE(w.source.empty()) << w.name;
    EXPECT_FALSE(w.description.empty()) << w.name;
    EXPECT_EQ(w.top, "main") << w.name;
  }
}

TEST(Workloads, FindByNameAndThrowOnUnknown) {
  EXPECT_EQ(core::findWorkload("fir").name, "fir");
  EXPECT_THROW(core::findWorkload("definitely-not-a-workload"),
               std::out_of_range);
}

TEST(Workloads, EveryWorkloadRunsOnTheGoldenModel) {
  for (const auto &w : core::standardWorkloads()) {
    auto v = core::runGoldenModel(w);
    EXPECT_TRUE(v.ok) << w.name << ": " << v.detail;
  }
}

TEST(Workloads, GoldenModelIsDeterministic) {
  const auto &w = core::findWorkload("crc32");
  auto a = core::runGoldenModel(w);
  auto b = core::runGoldenModel(w);
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_EQ(a.returnValue.toStringHex(), b.returnValue.toStringHex());
}

TEST(Comparator, OneRowPerFlowInRegistryOrder) {
  const auto &w = core::findWorkload("crc8small");
  auto rows = core::compareFlows(w);
  ASSERT_EQ(rows.size(), flows::allFlows().size());
  for (std::size_t i = 0; i < rows.size(); ++i)
    EXPECT_EQ(rows[i].flowId, flows::allFlows()[i].info.id);
}

TEST(Comparator, RejectionsCarryReasons) {
  const auto &w = core::findWorkload("fib"); // recursion: most flows reject
  auto rows = core::compareFlows(w);
  for (const auto &row : rows) {
    if (!row.accepted) {
      EXPECT_FALSE(row.note.empty()) << row.flowId;
    }
  }
}

TEST(Comparator, AsyncRowsReportNanosecondsNotCycles) {
  const auto &w = core::findWorkload("dotprod");
  auto rows = core::compareFlows(w);
  for (const auto &row : rows) {
    if (row.flowId == "cash" && row.verified) {
      EXPECT_GT(row.asyncNs, 0.0);
      EXPECT_EQ(row.cycles, 0u);
    }
  }
}

TEST(Verify, DetectsMismatchedExpectations) {
  // A workload whose checked global does not exist is simply skipped; but
  // a wrong flow result is caught.  Simulate by verifying a workload
  // against a flow result built from a DIFFERENT program.
  core::Workload lying = core::findWorkload("gcd");
  auto other = flows::runFlow(*flows::findFlow("bachc"),
                              "int main(int a, int b) { return a + b; }",
                              "main");
  ASSERT_TRUE(other.ok);
  auto v = core::verifyAgainstGoldenModel(lying, other);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.detail.find("mismatch"), std::string::npos);
}

TEST(Verify, SignExtendsNarrowedSignedGlobals) {
  // Regression: the global comparison used to zero-extend narrower RTL
  // storage unconditionally.  For a negative-valued signed int<N> global
  // (N < 64) whose storage is narrower than the declared width, the
  // comparison must sign-extend — zero extension manufactures a mismatch
  // out of a correct design.
  core::Workload w;
  w.name = "negglobal";
  w.source = "int<12> g;\nint main() { g = -5; return 0; }\n";
  w.top = "main";
  w.checkGlobals = {"g"};
  auto result = flows::runFlow(*flows::findFlow("bachc"), w.source, w.top);
  ASSERT_TRUE(result.ok);
  ASSERT_TRUE(core::verifyAgainstGoldenModel(w, result).ok);

  // Narrow g's storage slot to 8 bits: readGlobal now yields 0xfb, which
  // only matches the golden 12-bit 0xffb if extended by the declared
  // (signed) type.
  for (auto &slot : result.module->globalMap())
    if (slot.name == "g")
      slot.width = 8;
  auto v = core::verifyAgainstGoldenModel(w, result);
  EXPECT_TRUE(v.ok) << v.detail;
}

TEST(Verify, ZeroExtendsNarrowedUnsignedGlobals) {
  // The unsigned counterpart must still zero-extend.
  core::Workload w;
  w.name = "posglobal";
  w.source = "uint<12> g;\nint main() { g = 251; return 0; }\n";
  w.top = "main";
  w.checkGlobals = {"g"};
  auto result = flows::runFlow(*flows::findFlow("bachc"), w.source, w.top);
  ASSERT_TRUE(result.ok);
  for (auto &slot : result.module->globalMap())
    if (slot.name == "g")
      slot.width = 8;
  auto v = core::verifyAgainstGoldenModel(w, result);
  EXPECT_TRUE(v.ok) << v.detail;
}

TEST(Verify, HandedInGoldenRunIsCheckedNotTrusted) {
  // The engine verifies every flow of a workload against one golden run.
  // The design's simulation is still compared with it on every field: a
  // flipped return value or global element is a mismatch.
  const core::Workload &w = core::findWorkload("fir");
  TypeContext types;
  DiagnosticEngine diags;
  auto program = frontend(w.source, types, diags);
  ASSERT_TRUE(program) << diags.str();
  auto result = flows::runFlow(*flows::findFlow("bachc"), w.source, w.top);
  ASSERT_TRUE(result.ok) << result.error;
  const core::GoldenRun golden = core::runGoldenModel(w, *program);
  ASSERT_TRUE(golden.ok) << golden.detail;
  core::Verification v =
      core::verifyAgainstGoldenModel(w, result, *program, golden);
  EXPECT_TRUE(v.ok) << v.detail;
  EXPECT_EQ(v.cycles, core::verifyAgainstGoldenModel(w, result).cycles);

  core::GoldenRun lie = golden;
  lie.returnValue = golden.returnValue.bitNot();
  v = core::verifyAgainstGoldenModel(w, result, *program, lie);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.detail.find("return value mismatch"), std::string::npos)
      << v.detail;

  lie = golden;
  lie.globals.at(0).at(7) = golden.globals[0][7].bitNot();
  v = core::verifyAgainstGoldenModel(w, result, *program, lie);
  EXPECT_FALSE(v.ok);
  EXPECT_NE(v.detail.find("global 'y[7]' mismatch"), std::string::npos)
      << v.detail;
  EXPECT_NE(v.detail.find("vs rtl"), std::string::npos) << v.detail;

  // A failed golden run is reported as the verification's failure.
  core::GoldenRun failed;
  failed.detail = "interpreter: deliberate";
  v = core::verifyAgainstGoldenModel(w, result, *program, failed);
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(v.detail, "interpreter: deliberate");
}

TEST(Verify, ArgBitsUsesParameterWidths) {
  TypeContext types;
  DiagnosticEngine diags;
  auto program = frontend("int main(int<8> a, uint<40> b) { return 0; }",
                          types, diags);
  ASSERT_NE(program, nullptr);
  auto bits = core::argBits(*program, "main", {-1, 5});
  ASSERT_EQ(bits.size(), 2u);
  EXPECT_EQ(bits[0].width(), 8u);
  EXPECT_EQ(bits[1].width(), 40u);
  EXPECT_EQ(bits[0].toInt64(), -1);
}

} // namespace
} // namespace c2h
