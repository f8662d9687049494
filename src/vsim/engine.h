// Engine selection for vsim co-simulation.
//
// Two interchangeable backends execute an elaborated Model behind the
// same poke/peek/tick/settle interface:
//  * Event    — the reference two-phase event-driven evaluator (sim.h),
//  * Compiled — the cycle-compiled levelized bytecode VM (compile.h/cvm.h).
// The bytecode VM must agree with the event engine on values, globals,
// $display output, and exact cycle counts for every accepted design; the
// ladder degrades bytecode -> event with a recorded reason.
// Kept in its own header so core/engine.h can carry the choice in
// EngineOptions without pulling in the simulator headers.
#ifndef C2H_VSIM_ENGINE_H
#define C2H_VSIM_ENGINE_H

namespace c2h::vsim {

enum class SimEngine {
  Event,    // reference evaluator
  Compiled, // levelized bytecode VM (falls back to Event when a model
            // uses constructs outside the compilable subset)
  CompiledStrict, // bytecode VM with the fallback ladder disarmed: any
                  // compile failure or guard-triggered retry is an error
                  // instead of a silent downgrade.  The contract-checking
                  // mode bench_cosim and CI run to keep the compiled
                  // subset equal to the event subset.
};

} // namespace c2h::vsim

#endif // C2H_VSIM_ENGINE_H
