// Two-phase event-driven simulation of an elaborated Model.
//
// Scheduling follows the Verilog-2001 stratified event queue restricted to
// what the emitted subset needs:
//  * active phase: every runnable process executes to its next blocking
//    point; blocking assignments take effect immediately and may wake
//    @(posedge) / wait() sleepers in the same delta,
//  * NBA phase: when no process is runnable, queued non-blocking
//    assignments commit in program order; the resulting edges start a new
//    delta,
//  * time advances to the earliest pending #delay only when the current
//    time step is quiescent.
// All arithmetic is BitVector arithmetic with Verilog-2001 sizing rules
// (context-determined widths, self-determined shift amounts / concats /
// comparisons at the wider operand), so a 13-bit multiply behaves exactly
// as it does in the interpreter and the FSMD simulator.
//
// Two public entry points:
//  * Simulation — poke/peek/tick for DUT-level co-simulation (no
//    testbench; the harness drives clk/rst/start itself),
//  * runTestbench — full behavioral run of an emitTestbench module
//    ($display output captured, $finish honored, time-limited).
#ifndef C2H_VSIM_SIM_H
#define C2H_VSIM_SIM_H

#include "support/guard.h"
#include "vsim/elab.h"
#include "vsim/engine.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace c2h::vsim {

// Post-`initial` state snapshot: every net value plus every memory image.
// Capturing one after the first settle() and restoring it into later
// Simulations skips re-executing `initial` blocks (a 256-entry ROM init
// otherwise runs again on every construction — the crc8small outlier).
// Only valid for models whose initial blocks run to completion without
// suspending (hasPlainInit in vsim/compile.h).
struct InitImage {
  std::vector<BitVector> nets;
  std::vector<std::vector<BitVector>> mems;
};

class Simulation {
public:
  explicit Simulation(std::shared_ptr<const Model> model);
  // Start from a captured image: net/memory state is restored and Initial
  // processes are retired instead of re-run.
  Simulation(std::shared_ptr<const Model> model, const InitImage &image);

  // Capture current net/memory state (call after settle()).
  InitImage snapshot() const { return InitImage{values_, mems_}; }

  // Drive / observe top-instance nets by source name.  peek on a wire
  // evaluates its continuous assign.  Unknown names (or internal errors)
  // set error() and return zeros.
  void poke(const std::string &name, const BitVector &value);
  BitVector peek(const std::string &name) const;
  // By-id fast path for per-cycle harness driving (resolve the name once
  // with findNetId, then poke/peek/tick without map lookups).  Negative
  // ids are ignored (pokeId) or read as zero (peekWord).
  int findNetId(const std::string &name) const;
  void pokeId(int id, const BitVector &value);
  std::uint64_t peekWord(int id) const; // low 64 bits of the net value
  void tickId(int clkId);               // clk 0->1 (settle) -> 0 (settle)
  std::vector<BitVector> memoryContents(const std::string &name) const;
  void pokeMemory(const std::string &name, std::size_t index,
                  const BitVector &value);

  // Run all activity at the current simulation time (delta cycles) to
  // quiescence.  poke() settles implicitly.
  void settle();
  // One full clock: clk 0->1 (settle) -> 0 (settle).
  void tick(const std::string &clk = "clk");
  // Event loop until $finish, no pending events, or `maxTime` time units.
  void runToFinish(std::uint64_t maxTime);

  bool finished() const { return finished_; }
  std::uint64_t now() const { return time_; }
  const std::vector<std::string> &displayed() const { return output_; }
  bool ok() const { return error_.empty(); }
  const std::string &error() const { return error_; }
  // Structured cause when the failure was a guard event: a combinational
  // loop (the loop's nets, in evaluation order, land in verdict().site),
  // a shared-budget trip, or an injected fault.  Kind None otherwise.
  const guard::Verdict &verdict() const { return verdict_; }
  // Attach a shared resource meter (non-owning); the event loop polls its
  // deadline/cancellation and trips surface through error()/verdict().
  void setBudget(guard::ExecBudget *budget) { budget_ = budget; }

private:
  struct Frame {
    const Stmt *stmt = nullptr;
    std::size_t idx = 0;       // Block child cursor
    std::uint64_t count = 0;   // Repeat remaining
    bool entered = false;
  };
  enum class ThreadState { Ready, AtEdge, AtWait, AtTime, Done };
  struct Thread {
    Process::Kind kind = Process::Kind::Initial;
    int clockNet = -1;
    std::uint64_t period = 0;
    const Stmt *body = nullptr;
    std::vector<Frame> stack;
    ThreadState state = ThreadState::Ready;
    int edgeNet = -1;
    const Expr *waitExpr = nullptr;
    std::uint64_t wakeTime = 0;
  };
  struct Nba {
    bool isMem = false;
    int id = -1;
    std::uint64_t addr = 0;
    BitVector value{1};
  };

  BitVector evalCtx(const Expr *e, unsigned width) const;
  BitVector evalSelf(const Expr *e) const { return evalCtx(e, e->width); }
  BitVector readNet(int id) const;
  void writeNet(int id, const BitVector &value);
  void writeMem(int id, std::uint64_t addr, const BitVector &value);
  void execAssign(const Stmt *s, bool nonBlocking);
  void execReadMem(const Stmt *s);
  void runThread(Thread &t);
  bool wakeOnEvents();
  void applyNba();
  void runDelta();
  bool advanceTime();
  std::string formatDisplay(const Stmt *s) const;
  [[noreturn]] void throwCombLoop(int id) const;
  void recordGuardFailure(const guard::Verdict &v) const;

  std::shared_ptr<const Model> model_;
  std::vector<BitVector> values_;
  std::vector<std::vector<BitVector>> mems_;
  std::vector<Thread> threads_;
  std::vector<Nba> nba_;
  std::vector<int> posedges_; // nets whose LSB rose since the last drain
  std::vector<std::string> output_;
  std::uint64_t time_ = 0;
  bool finished_ = false;
  // Mutable: peek() is const but must still surface evaluation failures
  // (combinational loops) instead of silently returning zeros.
  mutable std::string error_;
  mutable guard::Verdict verdict_;
  guard::ExecBudget *budget_ = nullptr;

  // Wire memoization: a wire's value is cached until any state changes.
  mutable std::vector<BitVector> wireCache_;
  mutable std::vector<std::uint64_t> wireCacheGen_;
  mutable std::uint64_t generation_ = 1;
  mutable unsigned evalDepth_ = 0;
  // Wires currently being evaluated, outermost first; on depth overflow
  // the repeated suffix names the combinational loop.
  mutable std::vector<int> evalStack_;
};

struct TestbenchResult {
  bool finished = false;  // reached $finish
  std::string error;      // lex/parse/elab/runtime failure
  std::vector<std::string> output; // $display lines in order
  std::uint64_t timeUnits = 0;
  SimEngine engine = SimEngine::Event; // backend that ran it
};

// Parse + elaborate + run `topModule` (a zero-port testbench) from source
// (defined in cvm.cpp).  The engine ladder (selectEngine) picks the
// backend: compiled engines run the testbench on the bytecode VM's thread
// scheduler; when compilation fails the reason lands in *fallbackNote (if
// given) and Compiled falls back to the event engine while CompiledStrict
// returns the failure as an error.
TestbenchResult runTestbench(const std::string &source,
                             const std::string &topModule,
                             std::uint64_t maxTime = 20'000'000,
                             SimEngine engine = SimEngine::Event,
                             std::string *fallbackNote = nullptr);

} // namespace c2h::vsim

#endif // C2H_VSIM_SIM_H
