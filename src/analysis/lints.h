// Pre-flight lints: statically checkable hazards that are not concurrency
// bugs but bite specific synthesis styles.
//
//   C2H-LOOP-001   loop with no static bound.  Fatal for flows that must
//                  flatten every loop away (Cones' combinational model,
//                  Transmogrifier's cycle-per-iteration unrolling), merely
//                  informative elsewhere — the caller picks the severity.
//   C2H-WIDTH-001  implicit int<N> truncation (warning).  Sema inserts the
//                  narrowing cast silently, exactly the C-legacy behavior
//                  the paper complains about; constants that provably fit
//                  the target width are not reported.
//   C2H-UNINIT-001 possible read-before-write of a register value, found by
//                  may-be-unwritten forward dataflow on the lowered IR over
//                  the vregs live into the entry (warning — the analysis is
//                  path-insensitive).
#ifndef C2H_ANALYSIS_LINTS_H
#define C2H_ANALYSIS_LINTS_H

#include "analysis/diagnostic.h"
#include "frontend/ast.h"

namespace c2h::ir {
class Module;
}

namespace c2h::analysis {

// Flag while/do-while loops and for-loops without a static trip count.
Report lintUnboundedLoops(const ast::Program &program, Severity severity);

// Flag implicit narrowing conversions between integer types.
Report lintWidthTruncation(const ast::Program &program);

// Flag virtual registers that may be read before any write reaches them.
Report lintUninitReads(const ir::Module &module);

} // namespace c2h::analysis

#endif // C2H_ANALYSIS_LINTS_H
