// The c2h intermediate representation: a register-transfer-level, typed
// three-address code over a control-flow graph.
//
// Design notes
// ------------
// * Values live in *virtual registers* (VReg) with explicit bit widths.
//   Unlike LLVM-style SSA, a vreg may be written many times; this matches
//   the hardware target (registers!) and is the classic high-level-synthesis
//   intermediate form.  Signedness is a property of opcodes (DivS vs DivU),
//   not registers, mirroring two's-complement datapaths.
// * Aggregates and shared state live in *memories* (MemObject): every
//   global, every array, every address-taken or par-shared local becomes a
//   memory with Load/Store access.  Programs that use C pointers are lowered
//   with the pointed-at objects placed in one unified memory so a pointer is
//   just an address (the C2Verilog approach).
// * Concurrency appears as process functions + a Fork instruction
//   (start children, wait for all), and channels appear as ChanSend /
//   ChanRecv rendezvous instructions — the Handel-C / Bach C model.
// * Timing appears as Delay (explicit cycle boundaries, SystemC-style) and
//   per-instruction constraint tags referencing min/max cycle windows
//   (HardwareC-style).
#ifndef C2H_IR_IR_H
#define C2H_IR_IR_H

#include "support/bitvector.h"
#include "support/diagnostics.h"

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace c2h::ir {

enum class Opcode {
  // Pure datapath.
  Const,  // dst = imm
  Copy,   // dst = op0
  Add, Sub, Mul, DivS, DivU, RemS, RemU,
  And, Or, Xor, Not, Neg,
  Shl, ShrL, ShrA,            // shift amount is op1
  CmpEq, CmpNe, CmpLtS, CmpLtU, CmpLeS, CmpLeU, // dst width 1
  Mux,    // dst = op0 ? op1 : op2
  Trunc, ZExt, SExt,          // width change to dst.width
  // Memory (memId attribute).
  Load,   // dst = mem[op0]
  Store,  // mem[op0] = op1
  // Concurrency and timing.
  ChanSend, // chan(chanId) ! op0
  ChanRecv, // dst = chan(chanId) ?
  Fork,     // start process functions `processes`, wait for all
  Delay,    // consume `delayCycles` cycles
  // Control flow (terminators) and calls.
  Br,     // goto target0
  CondBr, // op0 ? target0 : target1
  Ret,    // optional op0
  Call,   // dst? = callee(ops...)
  Nop,
};

const char *opcodeName(Opcode op);
bool isTerminator(Opcode op);
// True for opcodes that neither touch memory/channels/control nor have any
// side effect — candidates for CSE and dead-code elimination.
bool isPure(Opcode op);
// True for commutative binary ops (operand order irrelevant).
bool isCommutative(Opcode op);

// A virtual register: id is unique within a Function; width in bits.
struct VReg {
  unsigned id = 0;
  unsigned width = 0;

  bool valid() const { return width != 0; }
  bool operator==(const VReg &) const = default;
};

// An instruction operand: either a vreg or an immediate.
class Operand {
public:
  Operand() : isImm_(true), imm_(1) {}
  /*implicit*/ Operand(VReg reg) : isImm_(false), imm_(1), reg_(reg) {}
  /*implicit*/ Operand(BitVector imm) : isImm_(true), imm_(std::move(imm)) {}

  bool isImm() const { return isImm_; }
  bool isReg() const { return !isImm_; }
  const BitVector &imm() const { return imm_; }
  VReg reg() const { return reg_; }
  unsigned width() const { return isImm_ ? imm_.width() : reg_.width; }

  std::string str() const;

private:
  bool isImm_;
  BitVector imm_;
  VReg reg_;
};

class BasicBlock;
class Function;

struct Instr {
  Opcode op = Opcode::Nop;
  std::optional<VReg> dst;
  std::vector<Operand> operands;

  // Attributes (used by the relevant opcodes only).
  BitVector constValue{1};      // Const
  unsigned memId = 0;           // Load/Store
  unsigned chanId = 0;          // ChanSend/ChanRecv
  unsigned delayCycles = 0;     // Delay
  std::vector<unsigned> processes; // Fork: function indices in the module
  std::string callee;           // Call
  BasicBlock *target0 = nullptr; // Br/CondBr
  BasicBlock *target1 = nullptr; // CondBr
  // HardwareC-style timing-constraint membership (0 = none); refers to
  // Function::constraints.
  unsigned constraintId = 0;
  SourceLoc loc;

  bool isTerminator() const { return ir::isTerminator(op); }
  std::string str() const;
};

// A block's successors, held by value: a terminator names at most two, so
// walking them never allocates.
class Successors {
public:
  BasicBlock *const *begin() const { return at_; }
  BasicBlock *const *end() const { return at_ + size_; }
  std::size_t size() const { return size_; }
  BasicBlock *operator[](std::size_t i) const { return at_[i]; }

private:
  friend class BasicBlock;
  void push_back(BasicBlock *block) { at_[size_++] = block; }

  BasicBlock *at_[2] = {nullptr, nullptr};
  std::size_t size_ = 0;
};

class BasicBlock {
public:
  explicit BasicBlock(unsigned id, std::string name)
      : id_(id), name_(std::move(name)) {}

  unsigned id() const { return id_; }
  const std::string &name() const { return name_; }

  std::vector<std::unique_ptr<Instr>> &instrs() { return instrs_; }
  const std::vector<std::unique_ptr<Instr>> &instrs() const { return instrs_; }

  Instr *terminator() const {
    return instrs_.empty() || !instrs_.back()->isTerminator()
               ? nullptr
               : instrs_.back().get();
  }
  // Successor blocks derived from the terminator: target0, then target1
  // (empty for Ret or unterminated blocks).
  Successors successors() const;

  Instr *append(std::unique_ptr<Instr> instr) {
    instrs_.push_back(std::move(instr));
    return instrs_.back().get();
  }

private:
  unsigned id_;
  std::string name_;
  std::vector<std::unique_ptr<Instr>> instrs_;
};

// A HardwareC-style timing constraint: all tagged instructions must be
// scheduled within [minCycles, maxCycles] control steps (maxCycles 0 =
// unbounded above).
struct TimingConstraint {
  unsigned id = 0;
  unsigned minCycles = 0;
  unsigned maxCycles = 0;
};

class Function {
public:
  Function(std::string name, unsigned returnWidth)
      : name_(std::move(name)), returnWidth_(returnWidth) {}

  const std::string &name() const { return name_; }
  unsigned returnWidth() const { return returnWidth_; } // 0 = void

  // Parameters are the first vregs, in order.
  std::vector<VReg> &params() { return params_; }
  const std::vector<VReg> &params() const { return params_; }

  VReg newVReg(unsigned width) { return VReg{nextVReg_++, width}; }
  unsigned vregCount() const { return nextVReg_; }

  BasicBlock *newBlock(std::string name);
  // The id the next newBlock() hands out (ids of erased blocks are never
  // reused, so this may exceed blocks().size()).
  unsigned blockIdCount() const { return nextBlock_; }
  std::vector<std::unique_ptr<BasicBlock>> &blocks() { return blocks_; }
  const std::vector<std::unique_ptr<BasicBlock>> &blocks() const {
    return blocks_;
  }
  BasicBlock *entry() const {
    return blocks_.empty() ? nullptr : blocks_.front().get();
  }

  // True when this function is a par-branch process (invoked by Fork, takes
  // no parameters, communicates through memories and channels).
  bool isProcess = false;

  std::vector<TimingConstraint> &constraints() { return constraints_; }
  const std::vector<TimingConstraint> &constraints() const {
    return constraints_;
  }

  // Blocks in reverse post-order from the entry (natural execution order).
  std::vector<BasicBlock *> reversePostOrder() const;

  std::string str() const;
  // A deep copy with the same block ids, names and order, the same vreg and
  // block counters and constraints; branch targets point at the copy's own
  // blocks.
  std::unique_ptr<Function> clone() const;

private:
  std::string name_;
  unsigned returnWidth_;
  std::vector<VReg> params_;
  unsigned nextVReg_ = 0;
  unsigned nextBlock_ = 0;
  std::vector<std::unique_ptr<BasicBlock>> blocks_;
  std::vector<TimingConstraint> constraints_;
};

// A memory object: `depth` words of `width` bits.  Globals, arrays, and
// shared locals live here.  A read-only memory with init data is a ROM.
struct MemObject {
  unsigned id = 0;
  std::string name;
  unsigned width = 0;
  std::uint64_t depth = 0;
  bool readOnly = false;
  std::vector<BitVector> init; // may be shorter than depth (rest zero)
};

// A rendezvous channel carrying `width`-bit tokens.
struct ChanObject {
  unsigned id = 0;
  std::string name;
  unsigned width = 0;
};

// Where a source-level global variable lives after lowering: `words` cells
// of `width` bits starting at word `base` of memory `memId`.  Test harnesses
// use this to seed inputs and compare outputs against the interpreter.
struct GlobalSlot {
  std::string name;
  unsigned memId = 0;
  std::uint64_t base = 0;
  std::uint64_t words = 0;
  unsigned width = 0;
};

class Module {
public:
  Function *addFunction(std::string name, unsigned returnWidth);
  Function *findFunction(const std::string &name) const;
  std::vector<std::unique_ptr<Function>> &functions() { return functions_; }
  const std::vector<std::unique_ptr<Function>> &functions() const {
    return functions_;
  }
  // Index of a function within the module (for Fork process lists).
  unsigned indexOf(const Function *fn) const;

  MemObject &addMem(std::string name, unsigned width, std::uint64_t depth);
  std::vector<MemObject> &mems() { return mems_; }
  const std::vector<MemObject> &mems() const { return mems_; }
  MemObject *findMem(const std::string &name);
  const MemObject *findMem(const std::string &name) const;

  ChanObject &addChan(std::string name, unsigned width);
  std::vector<ChanObject> &chans() { return chans_; }
  const std::vector<ChanObject> &chans() const { return chans_; }

  std::vector<GlobalSlot> &globalMap() { return globalMap_; }
  const std::vector<GlobalSlot> &globalMap() const { return globalMap_; }
  const GlobalSlot *findGlobal(const std::string &name) const;

  std::string str() const;

private:
  std::vector<std::unique_ptr<Function>> functions_;
  std::vector<MemObject> mems_;
  std::vector<ChanObject> chans_;
  std::vector<GlobalSlot> globalMap_;
};

// A deep copy of `module`: every function via Function::clone, plus the
// memories (with init images), channels and global map.  Passes that mutate
// IR in place run on a clone to leave a shared module untouched.
std::unique_ptr<Module> cloneModule(const Module &module);

// The module's complete structural identity: everything str() prints plus
// what it omits (memory init images, the global map, instruction source
// locations, vreg/block counters, attributes of opcodes that ignore them).
// Two modules with equal fingerprints are interchangeable inputs to every
// IR pass.  `hash` is for lookup; compare `text` to confirm a hit.
struct Fingerprint {
  std::uint64_t hash = 0;
  std::string text;

  bool operator==(const Fingerprint &) const = default;
};
Fingerprint fingerprint(const Module &module);

// Structural sanity checks (operand widths, terminators present, branch
// targets in-function, memory ids valid...).  Returns problems found.
std::vector<std::string> verify(const Module &module);

} // namespace c2h::ir

#endif // C2H_IR_IR_H
