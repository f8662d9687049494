// c2h public API — the one header an application needs.
//
// Typical use:
//
//   #include "core/c2h.h"
//   using namespace c2h;
//
//   core::Workload w = core::findWorkload("fir");
//   const flows::FlowSpec *flow = flows::findFlow("handelc");
//   flows::FlowResult r = flows::runFlow(*flow, w.source, w.top);
//   core::Verification v = core::verifyAgainstGoldenModel(w, r);
//   // v.ok, v.cycles, r.area, r.timing ...
//
// Everything below re-exports the library's layers (frontend, interpreter,
// IR, scheduling, RTL, flows) plus the workload registry and the
// golden-model verification harness used by the tests, examples, and every
// benchmark.
#ifndef C2H_CORE_C2H_H
#define C2H_CORE_C2H_H

#include "async/dataflow.h"
#include "flows/flow.h"
#include "frontend/sema.h"
#include "interp/interp.h"
#include "ir/exec.h"
#include "ir/lower.h"
#include "opt/inline.h"
#include "opt/irpasses.h"
#include "opt/unroll.h"
#include "rtl/report.h"
#include "rtl/sim.h"
#include "rtl/verilog.h"
#include "sched/ilp.h"
#include "sched/modulo.h"
#include "sched/schedule.h"
#include "vsim/engine.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace c2h::vsim {
class ModelCache; // vsim/cosim.h — cross-request artifact reuse
} // namespace c2h::vsim

namespace c2h::core {

// A named benchmark program: uC source, entry function, inputs, and the
// globals whose final contents define "the output".
struct Workload {
  std::string name;
  std::string description;
  std::string source;
  std::string top;
  std::vector<std::int64_t> args; // widened to the parameter types
  std::vector<std::string> checkGlobals;
  // Loop iterations of the main loop (for per-iteration metrics); 0 = n/a.
  std::uint64_t iterations = 0;
};

// The standard workload suite used across experiments (FIR, GCD, CRC32,
// matrix multiply, sorting, Collatz, dot product, histogram, ...).
const std::vector<Workload> &standardWorkloads();
// Lookup by name; throws std::out_of_range if unknown.
const Workload &findWorkload(const std::string &name);

struct Verification {
  bool ok = false;
  std::string detail;        // mismatch description or failure reason
  std::uint64_t cycles = 0;  // synchronous designs
  double asyncNs = 0.0;      // CASH designs
  BitVector returnValue{1};
  // Structured cause when a resource limit or injected fault stopped one of
  // the witnesses (interpreter step budget, simulator cycle budget, shared
  // meter trip); kind None for ok runs and plain mismatches.
  guard::Verdict verdict;
};

// The outcome of one golden-model run: `workload.top(workload.args)` on the
// reference interpreter.  The run is deterministic, so one result serves
// every flow's verification and co-simulation of the workload.
struct GoldenRun {
  bool ok = false;
  std::string detail; // failure reason when !ok ("interpreter: ...")
  // Structured cause when a resource limit or injected fault stopped the
  // run; kind None for completed runs and plain interpreter errors.
  guard::Verdict verdict;
  BitVector returnValue{1};
  // Final contents of each of workload.checkGlobals, in that order.
  std::vector<std::vector<BitVector>> globals;
};

// Run the golden model of `workload` over its already-compiled program,
// charging `budget` (the interpreter's default step limit still applies).
GoldenRun runGoldenModel(const Workload &workload,
                         const ast::Program &goldenProgram,
                         guard::ExecBudget *budget = nullptr);

// Execute `workload` on the reference interpreter and on the synthesized
// design inside `result` (FSMD simulation or asynchronous dataflow timing),
// comparing return values and every checked global bit-for-bit.  Narrower
// RTL storage is extended to the declared width by the declared type's
// signedness (a negative int<N> global must compare sign-extended).
Verification verifyAgainstGoldenModel(const Workload &workload,
                                      const flows::FlowResult &result,
                                      guard::ExecBudget *budget = nullptr);

// Same, but against an already-compiled golden program for `workload` (the
// flow-comparison engine passes the front-end cache's AST, which this
// function only reads — safe to share across concurrent verifications).
Verification verifyAgainstGoldenModel(const Workload &workload,
                                      const flows::FlowResult &result,
                                      const ast::Program &goldenProgram,
                                      guard::ExecBudget *budget = nullptr);

// Same, against a golden run already made over `goldenProgram`: only the
// design is simulated (one FSMD or asynchronous run, charged to `budget`).
// Every overload above computes its golden run and delegates here.
Verification verifyAgainstGoldenModel(const Workload &workload,
                                      const flows::FlowResult &result,
                                      const ast::Program &goldenProgram,
                                      const GoldenRun &golden,
                                      guard::ExecBudget *budget = nullptr);

// Golden-model-only execution (reference outputs + a sanity baseline).
Verification runGoldenModel(const Workload &workload);

// Process-wide work counters (relaxed atomics): golden-model runs made by
// runGoldenModel, and FSMD simulations made by verification and
// co-simulation.  Deterministic, so tests bound them where wall time would
// flake.
std::uint64_t goldenModelRuns();
std::uint64_t verifyFsmdRuns();

// Result of the third witness: re-executing the *emitted Verilog text*
// through vsim (src/vsim) and comparing it against both the interpreter
// (return value, checked globals) and the FSMD simulator (exact cycle
// count).  `ran` is false for designs with no synchronous RTL to
// co-simulate (asynchronous/CASH flows) and when the flow failed.
struct CosimVerification {
  bool ran = false;
  bool ok = false;
  std::string detail;        // first mismatch or failure reason
  std::uint64_t cycles = 0;  // vsim's cycle count (== FSMD when ok)
  // Structured cause when a guard event (budget trip, comb loop, injected
  // fault) stopped one of the witnesses; kind None otherwise.
  guard::Verdict verdict;
  // Set when the compiled vsim engine failed on a guard event and the run
  // succeeded after one retry on the event engine (records that failure).
  std::string degradation;
  // Which vsim backend actually executed the run ("compiled" / "event"),
  // and, when a Compiled request fell back to the event engine, the
  // recorded reason (the whyNot from compileModel or the injected-fault
  // verdict).  Empty fallback means no fallback happened.
  std::string engine;
  std::string fallback;
};

// The three-model differential check for one accepted design:
//   interpreter == FSMD Simulator == vsim   on the return value, and
//   FSMD Simulator == vsim                  on the exact cycle count,
// plus every checked global bit-for-bit between interpreter and vsim.
// `engine` selects the vsim backend: the cycle-compiled bytecode VM
// (default; silently falls back to the event engine for models outside
// its subset) or the event-driven reference evaluator.  `modelCache`, when
// given, reuses elaborated and compiled artifacts across calls that
// synthesize identical Verilog (the serve layer's cross-request init-image
// reuse).
//
// These overloads compute both reference witnesses themselves — one golden
// run and one FSMD simulation — and delegate to the witness-taking
// overload below.
CosimVerification
cosimAgainstGoldenModel(const Workload &workload,
                        const flows::FlowResult &result,
                        vsim::SimEngine engine = vsim::SimEngine::Compiled,
                        guard::ExecBudget *budget = nullptr,
                        vsim::ModelCache *modelCache = nullptr);
// The trailing bool is ignored.  It is kept only because the benchmark's
// replica (perfbench/replica.cpp) passes it and that caller may not change.
CosimVerification
cosimAgainstGoldenModel(const Workload &workload,
                        const flows::FlowResult &result,
                        const ast::Program &goldenProgram,
                        vsim::SimEngine engine = vsim::SimEngine::Compiled,
                        guard::ExecBudget *budget = nullptr,
                        vsim::ModelCache *modelCache = nullptr,
                        bool = false);
// The same check against witnesses a verification step already made: the
// golden run over `goldenProgram` and the FSMD simulator's cycle count
// (Verification::cycles).  Only vsim runs here; its return value and
// globals are compared with `golden`, its cycle count with `fsmdCycles`.
// The engine hands each verified cell's witnesses to this overload.
CosimVerification
cosimAgainstGoldenModel(const Workload &workload,
                        const flows::FlowResult &result,
                        const ast::Program &goldenProgram,
                        const GoldenRun &golden, std::uint64_t fsmdCycles,
                        vsim::SimEngine engine = vsim::SimEngine::Compiled,
                        guard::ExecBudget *budget = nullptr,
                        vsim::ModelCache *modelCache = nullptr);

// Why `result` has no synchronous RTL to co-simulate; null when it has.
const char *cosimSkipReason(const flows::FlowResult &result);

// One row of a cross-flow comparison.
struct FlowComparison {
  std::string flowId;
  bool accepted = false;
  bool verified = false;
  std::string note;       // rejection reason or error
  std::uint64_t cycles = 0;
  double areaTotal = 0.0;
  double fmaxMHz = 0.0;
  double asyncNs = 0.0;
  // Three-model co-simulation (EngineOptions::cosim): whether the emitted
  // Verilog was re-executed under vsim, and whether it agreed with the
  // interpreter and the FSMD simulator.  cosimNote carries the mismatch.
  bool cosimRan = false;
  bool cosimOk = false;
  std::uint64_t cosimCycles = 0;
  std::string cosimNote;
  // Structured cause when this row failed on a resource limit or an
  // injected fault (kind None for ok rows and plain mismatches).  A
  // resource-limit verdict maps to the CLI's exit code 4.
  guard::Verdict verdict;
  // Graceful-degradation record: the compiled vsim engine hit a guard
  // event, and the cell was re-run once on the event engine with the
  // remaining budget (the row then reflects the retry's outcome).
  std::string degradation;
  // vsim backend that executed the cosim cell ("compiled" / "event") and
  // the recorded fallback reason when a Compiled request downgraded.
  std::string cosimEngine;
  std::string cosimFallback;
  // Workload-level analyzer findings (shared across this workload's rows;
  // computed once per cached frontend compile).  Null when the frontend
  // failed or the cell contained a throw.
  std::shared_ptr<const analysis::Report> analysis;
};

// Run every registered flow over one workload, verifying each accepted
// design against the golden model.  Backed by a process-wide CompareEngine
// (core/engine.h): flows run on a thread pool (tuning.jobs; default
// hardware concurrency), the front end is compiled once per workload and
// cached, and a flow that throws yields a row whose note starts
// "internal error:" instead of aborting the comparison.  Rows are in flow
// registry order and identical for any jobs value.
std::vector<FlowComparison> compareFlows(const Workload &workload,
                                         const flows::FlowTuning &tuning = {});

// Helper: argument list converted to the entry function's parameter widths.
std::vector<BitVector> argBits(const ast::Program &program,
                               const std::string &fn,
                               const std::vector<std::int64_t> &args);

} // namespace c2h::core

#endif // C2H_CORE_C2H_H
