// The synthesizability analyzer: one entry point over all analyses.
//
// analyzeProgram() composes the par-race detector, the channel protocol
// checker, and the pre-flight lints into a single sorted Report.  Flows call
// preflightFlow() before synthesizing — its error findings become precise
// rejections ("who guarantees the parallel program is correct" becomes a
// mechanical answer instead of a runtime surprise).
#ifndef C2H_ANALYSIS_ANALYZER_H
#define C2H_ANALYSIS_ANALYZER_H

#include "analysis/diagnostic.h"
#include "frontend/ast.h"

#include <string>

namespace c2h::ir {
class Module;
}

namespace c2h::analysis {

struct AnalyzeOptions {
  std::string top = "main";
  bool parRaces = true;
  bool channelProtocol = true;
  bool loopBounds = true;
  // Unbounded loops are fatal only for flows that must flatten every loop;
  // the general analyzer reports them as notes.
  Severity loopSeverity = Severity::Note;
  bool widthTruncation = true;
  // Uninitialized-read detection runs on the IR when a module is supplied.
  bool uninitReads = true;
  // Value-range abstract interpretation (analysis/range.h) runs on the IR
  // when a module is supplied: provable out-of-range indices, divisions by
  // zero, oversized shifts, dead branches, and guaranteed truncation.  Its
  // C2H-OVFL-001 subsumes the AST-level C2H-WIDTH-001 heuristic, which is
  // therefore skipped whenever range analysis runs.
  bool valueRanges = true;
};

// Run the enabled analyses over `program` (and `module`, when non-null, for
// the IR-level lints).  The returned report is sorted; rendering it is
// byte-stable across runs.
Report analyzeProgram(const ast::Program &program,
                      const ir::Module *module = nullptr,
                      const AnalyzeOptions &options = {});
// The same, also storing in `*ranges` the checkRanges report of `module`
// (empty when there is no module or value ranges are off), so a caller can
// hand it to a flow that gates an identical module.
Report analyzeProgram(const ast::Program &program, const ir::Module *module,
                      const AnalyzeOptions &options, Report *ranges);

// The subset of analyses whose error findings make a program unsynthesizable
// regardless of backend quality: par races and provable channel deadlocks,
// plus unbounded loops when the flow must fully unroll
// (`requireBoundedLoops`).  Returns error-severity findings only, sorted:
// preflightErrors of an analyzeProgram report restricted to those analyses.
Report preflightFlow(const ast::Program &program, const std::string &top,
                     bool requireBoundedLoops);

// The pre-flight findings of an analyzeProgram report: its error-severity
// par-race (C2H-RACE-*), channel (C2H-CHAN-*) and loop-bound (C2H-LOOP-*)
// findings, sorted.  The general analyzer reports loop bounds as notes, so
// on its report this is exactly preflightFlow(program, top, false).
Report preflightErrors(const Report &report);

} // namespace c2h::analysis

#endif // C2H_ANALYSIS_ANALYZER_H
