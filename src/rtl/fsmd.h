// FSMD (finite-state machine + datapath) construction.
//
// A scheduled IR function becomes one FSMD process: every (block, control
// step) pair is an FSM state; the operations starting in that step are the
// state's register transfers.  A whole design is the set of processes
// (top function, par-branch processes, called functions), the module's
// memories and channels, and the schedule metadata the simulator and the
// Verilog emitter share.
#ifndef C2H_RTL_FSMD_H
#define C2H_RTL_FSMD_H

#include "ir/ir.h"
#include "sched/schedule.h"
#include "sched/techlib.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace c2h::rtl {

// Per-instruction placement inside its block.
struct OpSlot {
  const ir::Instr *instr = nullptr;
  unsigned start = 0; // control step within the block
  unsigned done = 0;  // step at which the result commits
};

struct FsmdBlock {
  const ir::BasicBlock *block = nullptr;
  unsigned length = 1;          // control steps
  std::vector<OpSlot> ops;      // in program order
};

struct FsmdProcess {
  const ir::Function *fn = nullptr;
  std::map<const ir::BasicBlock *, FsmdBlock> blocks;
  unsigned stateCount = 0; // total FSM states

  const FsmdBlock &blockInfo(const ir::BasicBlock *block) const {
    return blocks.at(block);
  }
};

// A complete synthesized design.
struct Design {
  const ir::Module *module = nullptr;     // not owned
  std::shared_ptr<ir::Module> ownedModule; // keeps the IR alive if set
  std::string top;
  sched::SchedOptions options;
  std::map<const ir::Function *, FsmdProcess> processes;
  std::vector<sched::ConstraintViolation> violations;

  const FsmdProcess *processFor(const ir::Function *fn) const {
    auto it = processes.find(fn);
    return it == processes.end() ? nullptr : &it->second;
  }
  unsigned totalStates() const;
};

// Build a design: schedule every function of `module` under `options` and
// derive the FSMDs.  `top` is the entry function.
Design buildDesign(const ir::Module &module, const std::string &top,
                   const sched::TechLibrary &lib,
                   const sched::SchedOptions &options);

// The design's identity as the FSMD simulator sees it: the module's
// ir::fingerprint, then `top`, then each function's process schedule in
// module order (per block: its id and length, and per operation its
// instruction's index in the block, `start` and `done`).  Two designs with
// equal fingerprints simulate identically.  `hash` is for lookup; compare
// `text` to confirm a hit.
ir::Fingerprint fingerprint(const Design &design);
// The same, given the text of ir::fingerprint(*design.module).
ir::Fingerprint fingerprint(const Design &design, std::string moduleText);

} // namespace c2h::rtl

#endif // C2H_RTL_FSMD_H
