// CASH-style asynchronous dataflow circuits (Budiu & Goldstein, FPL 2002).
//
// CASH compiles ANSI C into clockless dataflow hardware: every operation is
// a self-timed unit that fires when its input tokens arrive, completing
// after its own combinational delay.  There is no clock to quantize time —
// the paper's survey singles this out ("generates asynchronous circuits").
//
// We reproduce the two observable properties the comparison needs:
//  * a *structural* view — the dataflow circuit's node inventory and area,
//    including the per-node handshake (request/acknowledge) overhead that
//    asynchronous design pays, and
//  * a *behavioral* view — an event-driven timing simulation of the
//    program's dynamic dataflow: completion time of an operation is
//    max(arrival of inputs) + its real propagation delay, with no rounding
//    to clock edges.  Memory is sequentialized per object (one access at a
//    time, as CASH's memory interface does), and control tokens steer
//    between basic blocks with a small mux delay.
//
// The synchronous comparison point for the same program is the FSMD
// simulator's cycle count times the clock period — that pair is exactly
// the async-average-case vs. sync-worst-case experiment (E7b).
#ifndef C2H_ASYNC_DATAFLOW_H
#define C2H_ASYNC_DATAFLOW_H

#include "ir/ir.h"
#include "sched/techlib.h"
#include "support/bitvector.h"
#include "support/guard.h"

#include <cstdint>
#include <string>
#include <vector>

namespace c2h::async {

struct AsyncCircuitInfo {
  unsigned nodes = 0;        // dataflow operators
  unsigned memPorts = 0;     // memory access nodes
  unsigned steerNodes = 0;   // control-steering (mu/eta-style) nodes
  double area = 0.0;         // operators + handshake overhead
  std::string str() const;
};

// Static structure and area of the dataflow circuit for `fn`.
AsyncCircuitInfo buildCircuitInfo(const ir::Module &module,
                                  const ir::Function &fn,
                                  const sched::TechLibrary &lib);

struct AsyncSimResult {
  bool ok = false;
  std::string error;
  BitVector returnValue{1};
  double timeNs = 0.0;          // dataflow completion time
  std::uint64_t operations = 0; // dynamic operations fired
  // Structured cause when the operation limit or the shared meter's
  // deadline ended the run; kind None otherwise.
  guard::Verdict verdict;
};

struct AsyncSimOptions {
  std::uint64_t maxOperations = 20'000'000;
  // Per-node handshake latency added to every firing (async overhead).
  double handshakeNs = 0.05;
  // Shared resource meter (non-owning; may be null), polled for its
  // deadline and cancellation every 1024 fired operations.
  guard::ExecBudget *budget = nullptr;
};

// Event-driven timing simulation of `fn(args)`.  Sequential programs only
// (CASH compiles plain C; par/channels are not in its input language).
AsyncSimResult simulateAsync(const ir::Module &module, const std::string &fn,
                             const std::vector<BitVector> &args,
                             const sched::TechLibrary &lib,
                             const AsyncSimOptions &options = {});

} // namespace c2h::async

#endif // C2H_ASYNC_DATAFLOW_H
