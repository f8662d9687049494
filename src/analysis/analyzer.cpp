#include "analysis/analyzer.h"

#include "analysis/channels.h"
#include "analysis/effects.h"
#include "analysis/lints.h"
#include "analysis/race.h"
#include "analysis/range.h"

namespace c2h::analysis {

Report analyzeProgram(const ast::Program &program, const ir::Module *module,
                      const AnalyzeOptions &options) {
  return analyzeProgram(program, module, options, nullptr);
}

Report analyzeProgram(const ast::Program &program, const ir::Module *module,
                      const AnalyzeOptions &options, Report *ranges) {
  Report report;
  if (options.parRaces) {
    EffectAnalysis effects(program);
    report.append(checkParRaces(program, effects));
  }
  if (options.channelProtocol)
    report.append(checkChannels(program, options.top));
  if (options.loopBounds)
    report.append(lintUnboundedLoops(program, options.loopSeverity));
  // The IR-level range analysis proves what the AST width lint only
  // guesses; when both could run, only the range findings are reported
  // (C2H-WIDTH-001 is subsumed by C2H-OVFL-001).
  if (options.widthTruncation && !(module && options.valueRanges))
    report.append(lintWidthTruncation(program));
  if (options.uninitReads && module)
    report.append(lintUninitReads(*module));
  if (options.valueRanges && module) {
    Report found = checkRanges(*module);
    report.append(found);
    if (ranges)
      *ranges = std::move(found);
  }
  report.sort();
  return report;
}

Report preflightFlow(const ast::Program &program, const std::string &top,
                     bool requireBoundedLoops) {
  AnalyzeOptions options;
  options.top = top;
  options.loopBounds = requireBoundedLoops;
  options.loopSeverity = Severity::Error;
  options.widthTruncation = false;
  options.uninitReads = false;
  return preflightErrors(analyzeProgram(program, nullptr, options));
}

Report preflightErrors(const Report &report) {
  Report errors;
  for (const Diagnostic &d : report.diagnostics())
    if (d.severity == Severity::Error &&
        (d.code.starts_with("C2H-RACE-") || d.code.starts_with("C2H-CHAN-") ||
         d.code.starts_with("C2H-LOOP-")))
      errors.add(d);
  errors.sort();
  return errors;
}

} // namespace c2h::analysis
