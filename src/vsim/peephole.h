// Peephole optimization of the levelized bytecode form (compile.h): the
// switch VM in cvm.cpp executes the optimized programs directly.
//
// Passes, run to a model-wide fixpoint:
//  1. word-path constant folding inside every program (temps are
//     single-assignment except loop counters, so constness is a pure
//     forward scan), including branch folding of decided Jump/CaseJump
//     conditions and unreachable-code removal;
//  2. constant folding *across wires*: a wire whose driver folds to a
//     single constant store becomes a constant net — its value is baked
//     into the init image, every load of it anywhere becomes a constant,
//     and the wire leaves the levelized sweep entirely (its dirty-set
//     slot, fan-out edges, and per-sweep check simply cease to exist);
//  3. compare+branch fusion: a word compare whose only consumer is the
//     immediately following conditional jump fuses into one CmpBr insn —
//     one dispatch instead of two on the hottest FSM edge pattern;
//  4. dead-code elimination of unused pure computations, then program
//     compaction with all jump targets (including CaseJump dispatch
//     tables) remapped.
//
// The pass never changes observable semantics: values, exact cycle
// counts, $display output, posedge wakeups, and error text all stay
// byte-identical (bench_cosim and test_fuzz enforce this differentially).
#ifndef C2H_VSIM_PEEPHOLE_H
#define C2H_VSIM_PEEPHOLE_H

#include "vsim/compile.h"

namespace c2h::vsim {

struct PeepholeStats {
  unsigned foldedInsns = 0;   // insns rewritten to ConstW / folded copies
  unsigned fusedBranches = 0; // compare+branch pairs fused into CmpBr
  unsigned removedInsns = 0;  // dead / unreachable insns dropped
  unsigned constWires = 0;    // wires folded out of the levelized sweep
};

// Optimize `cm` in place.  Called by compileModel() as the final lowering
// step; idempotent and safe on any well-formed CompiledModel.
PeepholeStats optimizeCompiledModel(CompiledModel &cm);

} // namespace c2h::vsim

#endif // C2H_VSIM_PEEPHOLE_H
