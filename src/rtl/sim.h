// Cycle-accurate simulation of a synthesized Design.
//
// This is the harness's "logic simulator": it executes the FSMDs exactly as
// the generated RTL would —
//  * one FSM state per cycle per process, register transfers applied in
//    dependence (program) order with operator chaining inside the state,
//  * multi-cycle operators commit their results `done - start` cycles
//    after issue,
//  * channels implement the Handel-C/OCCAM rendezvous: a send and a receive
//    on the same channel complete together in the first cycle both sides
//    are waiting,
//  * Fork starts child process FSMs and joins on their done signals,
//  * Call activates the callee's FSM and stalls until done (the hardware
//    start/done handshake),
//  * Delay stalls its process for a known number of cycles (which counts as
//    progress, not as a stall, for deadlock detection),
//  * memories are word-addressed synchronous RAMs initialized from the IR.
//
// Execution model: the constructor decodes the design once, the way
// vsim::compileModel levelizes a model.  Each process becomes blocks
// indexed by block id whose control steps are flat lists of the ops that
// start in them, in program order; each op carries its register slots (the
// function's vregs, then one slot per immediate), widths and latency, and
// each terminator its target block indices.  A cycle then runs only the
// current step's ops.  Datapath values of at most 64 bits are computed on
// words (support/wordops.h); wider ones, and registers holding a value of
// an unexpected width, go through ir::IRExecutor::evalOp, so every layer
// agrees bit for bit.  Only running activations are stepped (a joined
// child or returned callee is reused), and channel offers, pending
// multi-cycle writes and delays live in flat vectors.
//
// Cycle counts reported by the simulator are the numbers every timing
// experiment in EXPERIMENTS.md quotes.
#ifndef C2H_RTL_SIM_H
#define C2H_RTL_SIM_H

#include "rtl/fsmd.h"
#include "support/bitvector.h"
#include "support/guard.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace c2h::rtl {

struct SimOptions {
  std::uint64_t maxCycles = 20'000'000;
  // Declare deadlock after this many cycles without any process advancing.
  std::uint64_t stallLimit = 10'000;
  // Shared resource meter (non-owning; may be null).  Cycles and wall clock
  // are charged against it; exhaustion becomes SimResult::verdict.
  guard::ExecBudget *budget = nullptr;
};

struct SimResult {
  bool ok = false;
  std::string error;
  BitVector returnValue{1};
  std::uint64_t cycles = 0;
  // Structured cause for resource-limit failures (cycle budget, deadlock,
  // shared-budget exhaustion); kind None for ok runs and plain errors.
  guard::Verdict verdict;
};

class Simulator {
public:
  explicit Simulator(const Design &design, SimOptions options = {});

  // Reset memories to their initial images and run `top(args...)`.
  SimResult run(const std::vector<BitVector> &args = {});

  // Global access (between or after runs) through the module's global map.
  std::vector<BitVector> readGlobal(const std::string &name) const;
  void writeGlobal(const std::string &name,
                   const std::vector<BitVector> &cells);
  // Re-initialize memories from the IR images (run() does NOT do this, so
  // writeGlobal-seeded inputs survive).
  void resetMemories();

private:
  struct Impl;
  std::shared_ptr<Impl> impl_;
};

// How many activation steps (one process stepped for one cycle) the
// simulator has made in this process (relaxed atomic).  Bounded per run by
// tests, it shows that a cycle steps only running processes.
std::uint64_t activationSteps();

} // namespace c2h::rtl

#endif // C2H_RTL_SIM_H
