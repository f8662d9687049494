// Cycle compilation: turn an elaborated Model into a levelized, bytecode
// form that the tight switch VM in cvm.h executes.
//
// The event-driven evaluator (sim.h) walks the annotated AST and allocates
// a BitVector per expression node on every delta.  For the synchronous
// subset the RTL emitter produces — undriven clock inputs, continuous
// assigns, `always @(posedge clk)` bodies made of if/case/assignments, and
// constant-store `initial` blocks — none of that generality is needed, and
// compileModel() lowers the Model once into:
//
//  1. a *levelized* combinational order: every driven net (wire) gets a
//     topological rank such that its supports all have lower ranks, so one
//     forward sweep settles combinational logic with no event queue and no
//     fixpoint iteration (a combinational cycle fails compilation; such
//     designs keep the event engine, which reports the loop at runtime);
//  2. flat register-based *bytecode* for every wire driver and every
//     clocked process body.  Each instruction is specialized at compile
//     time: the word form computes in a single uint64_t with masking
//     (valid when the result and operands fit 64 bits), the wide form
//     falls back to full BitVector semantics.  All context widths are
//     static under the Verilog-2001 sizing rules, so the choice never
//     depends on runtime values;
//  3. per-clock-domain process groups committed with the same semantics
//     as the stratified event queue: bodies run in process order with
//     blocking assigns visible immediately, then queued non-blocking
//     assigns commit in program order;
//  4. fan-out lists for dirty-set activation: a changed net marks only the
//     wires in its fan-out cone, so a quiescent design settles in O(1);
//  5. a cached InitImage — the post-`initial` net/memory state captured by
//     running the reference engine once at compile time — so per-run
//     construction never re-executes ROM init blocks.
//
// Models with suspending control flow (generated testbenches with
// #delay/@(posedge)/wait threads, always-#N clock generators, clocks
// written by processes) compile in *behavioral* mode: every process
// lowers to a thread program and the VM runs the same stratified
// delta/NBA/time scheduler as the event engine, with wires still settled
// by the levelized sweep.  The compiled subset therefore equals the event
// subset; the only remaining compile failure is a combinational cycle
// (which the event engine also reports, at runtime) or an injected
// vsim.compile fault, and only then does the caller fall back.
#ifndef C2H_VSIM_COMPILE_H
#define C2H_VSIM_COMPILE_H

#include "vsim/sim.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace c2h::vsim {

// Bytecode operations.  Operand conventions per op are documented next to
// the Insn fields they use; `wide` selects BitVector semantics over the
// single-word fast path and is fixed at compile time.
enum class Op : std::uint8_t {
  ConstW,   // dst = imm (pre-masked)
  ConstV,   // dst = constPool[aux]
  LoadNet,  // dst = extend(nets[aux], from=b, to=width, sign)
  LoadWire, // same, but flush dirty combinational logic first
  LoadMem,  // dst = resize(mems[aux][regs[a]], width); out of range -> 0
  BitSel,   // dst = regs[a].bit(regs[b]) as width-wide 0/1
  Ext,      // dst = extend(regs[a], from=b, to=width, sign)
  Neg,      // dst = -regs[a]           (operand already at width)
  BitNot,   // dst = ~regs[a]
  LogNot,   // dst = (regs[a] == 0) as width-wide 0/1
  Add, Sub, Mul,
  Div, Mod, // sign selects sdiv/srem vs udiv/urem
  And, Or, Xor,
  Shl, Shr, AShr, // a at width, b = self-determined amount; sign for AShr
  CmpLt, CmpLe,   // dst = compare(regs[a], regs[b]) at the operands'
  CmpEq, CmpNe,   //   width as width-wide 0/1; sign = both-signed compare
  LAnd, LOr,      // dst = (a != 0) op (b != 0) as width-wide 0/1
  Select,   // dst = regs[a] != 0 ? regs[b] : regs[aux]
  Concat2,  // dst = {regs[a], regs[b]}; aux = low operand width
  Extract,  // dst = resize(regs[a][aux +: b], width) (zero-extended)
  Jump,       // pc = aux
  JumpIfZero, // if (regs[a] == 0) pc = aux
  JumpIfTrue, // if (regs[a] != 0) pc = aux
  CaseJump,   // pc = jumpTables[aux][regs[a] - imm], or b when out of
              //   range — dense constant-label case dispatch (FSM states)
  StoreNet, // nets[aux] = regs[a]; mark fan-out dirty on change
  StoreMem, // mems[aux][regs[a]] = regs[b]; out of range -> dropped
  NbNet,    // queue nets[aux] <= regs[a]
  NbMem,    // queue mems[aux][regs[a]] <= regs[b]
  // Thread ops (behavioral programs only — generated testbenches and other
  // models with suspending control flow).  Each suspension op parks the
  // thread and records where execution resumes.
  TWait,     // @(posedge nets[aux]): park AtEdge, resume at pc+1
  TDelay,    // #imm: park AtTime at now+imm, resume at pc+1
  TWaitCond, // wait(cond): regs[a] truthy -> fall through; else park
             //   AtWait polling waitConds[b], resume at aux (the cond
             //   re-evaluation head, matching the event engine's recheck)
  TDisplay,  // output displays[aux] (args pre-evaluated into regs)
  TFinish,   // $finish: finished, thread done
  TReadMem,  // execute readmems[aux]; on failure record the verdict and
             //   retire this thread only (the run continues, like the
             //   event engine)
  TError,    // abort the run with messages[aux] (compile-time-detected
             //   runtime errors, e.g. a bad $display conversion)
};

// One past the last opcode — sizes profiling histograms (bench_cosim
// --profile-ops) and the opName table.
inline constexpr unsigned kOpCount = static_cast<unsigned>(Op::TError) + 1;

// Stable mnemonic for profiling / diagnostics output.
const char *opName(Op op);

struct Insn {
  Op op;
  bool wide = false; // BitVector path instead of the uint64 word path
  bool sign = false;
  std::uint32_t dst = 0;   // destination temp
  std::uint32_t a = 0;     // operand temp (or net id for Load*)
  std::uint32_t b = 0;     // operand temp / from-width / length
  std::uint32_t aux = 0;   // net/mem id, jump target, lsb, pool index
  std::uint32_t width = 0; // result (context) width
  std::uint64_t imm = 0;   // ConstW payload
};

struct Program {
  std::vector<Insn> insns;
};

// One levelized wire: its net id, the bytecode evaluating its driver into
// nets[netId], and the ranks of the wires it feeds.
struct WireUpdate {
  int netId = -1;
  Program prog;
};

// All clocked processes sharing one clock net, in process order.
struct ClockDomain {
  int clockNet = -1;
  std::vector<Program> bodies;
};

// One process lowered for the behavioral thread scheduler, in procs order.
struct ThreadProgram {
  Process::Kind kind = Process::Kind::Initial;
  int clockNet = -1;        // Clocked
  std::uint64_t period = 0; // DelayLoop
  Program prog;
};

// Side-effect-free poll program for one wait(cond) site: evaluates the
// condition into regs[result] so the scheduler can poll sleepers exactly
// like the event engine's wakeOnEvents pass.
struct WaitCond {
  Program prog;
  std::uint32_t result = 0;
};

// One $display lowered at compile time: literal text followed by an
// optional conversion of a pre-evaluated register.
struct DisplaySeg {
  std::string lit;
  char conv = 0; // 0 = literal only, else 'd' / 'h' / 'b'
  std::uint32_t arg = 0;
  bool sign = false; // %d of a signed expression
};
struct DisplayDesc {
  std::vector<DisplaySeg> segs;
};

struct ReadMemDesc {
  std::string path;
  int memId = -1;
  bool readHex = true;
};

struct CompiledModel {
  std::shared_ptr<const Model> model;
  std::vector<WireUpdate> wires; // topological order; rank = index
  std::vector<ClockDomain> domains;
  std::vector<int> domainOfClock;                 // netId -> domain or -1
  std::vector<std::vector<std::uint32_t>> netFanout; // netId -> wire ranks
  std::vector<std::vector<std::uint32_t>> memFanout; // memId -> wire ranks
  std::vector<unsigned> tempWidth; // fixed width of every VM register
  std::vector<BitVector> constPool;
  // CaseJump dispatch tables: insn indices, one entry per selector value
  // in [imm, imm + size); unmatched values route to the default target.
  std::vector<std::vector<std::uint32_t>> jumpTables;
  InitImage init; // post-`initial` state, captured once
  // Non-behavioral models whose `initial` execution failed at capture time
  // (e.g. a broken $readmem file) still compile; the VM reports the same
  // runtime failure the event engine would, so the fallback ladder never
  // has to reopen for them.
  std::string initError;
  guard::Verdict initVerdict;
  // ---- behavioral mode (testbenches, delay loops, driven clocks) ----
  // When set, the model runs on the VM's thread scheduler: `threads` holds
  // one program per process, `watchNet` marks posedge-watched nets (clock
  // nets and @(posedge) targets without continuous drivers — wires never
  // wake edge sleepers, matching the event engine), and domains stay
  // empty.  The init image is the declared-initializer state; `initial`
  // bodies run live.
  bool behavioral = false;
  std::vector<ThreadProgram> threads;
  std::vector<WaitCond> waitConds;
  std::vector<DisplayDesc> displays;
  std::vector<ReadMemDesc> readmems;
  std::vector<std::string> messages; // TError payloads
  std::vector<std::uint8_t> watchNet; // netId -> record posedges?
};

// Lower `model` for the VM.  Returns null and fills `whyNot` when the
// model uses constructs outside the compilable subset.
std::shared_ptr<const CompiledModel>
compileModel(std::shared_ptr<const Model> model, std::string &whyNot);

// True when every initial block runs to completion without suspending or
// doing I/O (only begin/end, assignments, if, case) and no process is a
// testbench delay loop — the precondition for InitImage reuse.
bool hasPlainInit(const Model &model);

} // namespace c2h::vsim

#endif // C2H_VSIM_COMPILE_H
