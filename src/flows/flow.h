// Synthesis flows: one per language surveyed in the paper's Table 1.
//
// A flow bundles three policies, which is precisely the paper's framing:
//  * an *expressiveness* policy — which uC features the language rejects
//    (C2Verilog takes pointers and recursion; Cyber "prohibits recursive
//    functions and pointers"; Bach C "supports arrays but not pointers";
//    Handel-C has no division; Cones takes only bounded, flattenable C...),
//  * a *concurrency* policy — explicit `par`/channels (Handel-C, SpecC,
//    Bach C, HardwareC), processes (SystemC, Ocapi), or compiler-extracted
//    parallelism only (Cones, Transmogrifier, C2Verilog, CASH),
//  * a *timing* policy — where clock cycles come from (one per assignment,
//    one per loop iteration/call, wait() statements, scheduler freedom with
//    optional min/max constraints, or no clock at all for CASH).
//
// runFlow() applies the policy pipeline: restriction check -> inline ->
// (unroll) -> lower -> optimize -> (if-convert) -> schedule -> FSMD (or
// asynchronous dataflow), and returns the synthesized design plus area and
// timing estimates.
#ifndef C2H_FLOWS_FLOW_H
#define C2H_FLOWS_FLOW_H

#include "analysis/diagnostic.h"
#include "async/dataflow.h"
#include "frontend/sema.h"
#include "ir/ir.h"
#include "rtl/fsmd.h"
#include "rtl/report.h"
#include "sched/schedule.h"
#include "support/guard.h"

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace c2h::flows {

class PrefixMemo; // flows/prefix.h

// The descriptive row of Table 1.
struct FlowInfo {
  std::string id;          // registry key, e.g. "handelc"
  std::string displayName; // "Handel-C"
  std::string origin;      // "Celoxica"
  unsigned year = 0;       // for chronological ordering, as in Table 1
  std::string comment;     // Table 1's comment column
  std::string concurrencyModel;
  std::string timingModel;
  std::string circuitStyle; // synchronous FSMD / combinational / async
};

struct FlowSpec {
  FlowInfo info;
  // Features the language cannot express, with the rejection message.
  std::map<Feature, std::string> rejects;
  // Pipeline switches.
  bool unrollAllLoops = false;      // Cones flattening
  bool requireCombinational = false; // Cones: single-block result demanded
  bool ifConvertBranches = false;   // Cones/Transmogrifier: ifs become muxes
  bool forceUnifiedMemory = false;  // C2Verilog pointer layout
  bool stackifyRecursion = false;   // C2Verilog: recursion via stack RAM
  bool asyncDataflow = false;       // CASH backend
  // Languages whose timing rules are defined on *source statements*
  // (Handel-C, Ocapi) must not let the optimizer rewrite them away.
  bool optimizeIr = true;
  // Scheduling policy (ignored for asyncDataflow).
  sched::SchedOptions sched;
  // Whether the caller's clock/resource tuning applies (fixed-rule flows
  // like Transmogrifier ignore it).
  bool tunable = true;
};

// Caller-side knobs for experiments.
struct FlowTuning {
  std::optional<double> clockNs;
  std::optional<sched::ResourceSet> resources;
  // Worker threads for cross-flow comparison (core::compareFlows and the
  // CompareEngine): unset or 0 = hardware concurrency, 1 = serial.  Result
  // rows are deterministic and identical regardless of this value.
  std::optional<unsigned> jobs;
  // Per-cell resource limits (all-zero = unlimited).  The CompareEngine
  // instantiates one ExecBudget per (flow, workload) cell from this spec,
  // so a runaway cell can never consume a sibling's budget.
  guard::BudgetSpec budget;
  // Already-instantiated meter to charge instead (non-owning; overrides
  // `budget` when set).  The engine sets this so the pipeline, golden-model
  // verification, and co-simulation of one cell share a single meter.
  guard::ExecBudget *meter = nullptr;
  // Request-scoped memo of the pipeline prefix the flows share (non-owning;
  // see flows/prefix.h).  The engine sets one per workload in a request, the
  // way it sets `meter`; null gives the call a memo of its own.
  PrefixMemo *prefix = nullptr;
};

struct FlowResult {
  bool accepted = false;           // language accepted the program
  bool ok = false;                 // synthesis completed
  std::vector<std::string> rejections; // restriction diagnostics
  std::string error;               // non-restriction failure
  // Structured cause when a resource limit or injected fault ended the
  // pipeline (kind None for ok runs, rejections, and plain errors).
  guard::Verdict verdict;
  // Structured findings from the pre-flight analyzer (provable races,
  // channel deadlocks, un-flattenable loops) that caused a rejection or
  // failure; empty when the program passed pre-flight.
  analysis::Report analysisFindings;

  std::shared_ptr<ir::Module> module;
  std::optional<rtl::Design> design;              // synchronous flows
  std::optional<async::AsyncCircuitInfo> asyncInfo; // CASH
  rtl::AreaReport area;
  rtl::TimingReport timing;
  std::vector<sched::ConstraintViolation> violations;

  bool constraintsMet() const { return violations.empty(); }
};

// All flows, in chronological order (Table 1's order).
const std::vector<FlowSpec> &allFlows();
// Lookup by id; nullptr if unknown.
const FlowSpec *findFlow(const std::string &id);

// Run `source`'s function `top` through `spec`.
FlowResult runFlow(const FlowSpec &spec, const std::string &source,
                   const std::string &top, const FlowTuning &tuning = {});

// Same pipeline, starting from an already lexed/parsed/checked program —
// the front-end cache hands each flow a private clone so the frontend runs
// once per workload, not once per (flow, workload).  The flow MUTATES
// `program` (inlining, unrolling), so never pass a shared AST; `types`
// must be the context the program's Type pointers live in.
//
// The pre-flight analysis, the range gate and the optimize/prune step come
// from a PrefixMemo, and the result's module may be shared read-only with
// the memo's other flows.  The engine sets `tuning.prefix` to its request
// memo; with it null (runFlow and other direct callers) the call makes a
// memo of its own.
FlowResult runFlowChecked(const FlowSpec &spec, ast::Program &program,
                          TypeContext &types, const std::string &top,
                          const FlowTuning &tuning = {});

// The feature matrix behind Table 1: for every flow, which features it
// accepts.  Columns are the Feature enum.
std::vector<Feature> matrixFeatures();
bool flowAccepts(const FlowSpec &spec, Feature feature);

} // namespace c2h::flows

#endif // C2H_FLOWS_FLOW_H
