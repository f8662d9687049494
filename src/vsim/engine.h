// Engine selection for vsim co-simulation.
//
// Two interchangeable backends execute an elaborated Model behind the
// same poke/peek/tick/settle interface:
//  * Event    — the reference two-phase event-driven evaluator (sim.h),
//  * Compiled — the cycle-compiled levelized bytecode VM (compile.h/cvm.h).
// The bytecode VM must agree with the event engine on values, globals,
// $display output, and exact cycle counts for every accepted design; the
// ladder (selectEngine below) degrades bytecode -> event with a recorded
// reason.
// Kept in its own header so core/engine.h can carry the choice in
// EngineOptions without pulling in the simulator headers.
#ifndef C2H_VSIM_ENGINE_H
#define C2H_VSIM_ENGINE_H

#include "support/guard.h"

#include <memory>
#include <optional>
#include <string>
#include <string_view>

namespace c2h::vsim {

struct Model;
struct CompiledModel;

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

// Every engine's name on every surface: c2hc --vsim-engine, a serve
// request's vsim_engine, the cache key of a serve response, and a cosim
// row's `engine`.
struct SimEngineName {
  SimEngine engine;
  std::string_view name;
};
inline constexpr SimEngineName kSimEngineNames[] = {
    {SimEngine::Event, "event"},
    {SimEngine::Compiled, "compiled"},
    {SimEngine::CompiledStrict, "compiled-strict"},
};

constexpr std::string_view engineName(SimEngine engine) {
  for (const SimEngineName &entry : kSimEngineNames)
    if (entry.engine == engine)
      return entry.name;
  return {};
}

// The engine called `name`; nullopt for a name not in the table.
constexpr std::optional<SimEngine> parseEngine(std::string_view name) {
  for (const SimEngineName &entry : kSimEngineNames)
    if (entry.name == name)
      return entry.engine;
  return std::nullopt;
}

// One model's compile, attempted at most once and then remembered.
struct CompileAttempt {
  bool tried = false;
  std::shared_ptr<const CompiledModel> compiled; // null: the compile refused
  std::string note;       // why it refused; empty when it compiled
  guard::Verdict verdict; // the injected vsim.compile fault, if that was why
};

// The engine ladder, shared by every vsim entry point: Cosimulation::run
// (and so cosimulateSource) and runTestbench.  Event never compiles.  Any
// other engine compiles `model` on the first call for `attempt`; a refused
// compile or an injected vsim.compile fault falls back to the event engine
// with the reason in attempt.note.  Returns the compiled model to run, or
// null to run the event engine.  Under CompiledStrict the fallback is an
// error instead: null, with `strictError` set.
std::shared_ptr<const CompiledModel>
selectEngine(const std::shared_ptr<const Model> &model, SimEngine engine,
             CompileAttempt &attempt, std::string &strictError);

} // namespace c2h::vsim

#endif // C2H_VSIM_ENGINE_H
