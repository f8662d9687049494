#include "ir/ir.h"

#include "support/text.h"

#include <algorithm>
#include <map>
#include <set>
#include <sstream>

namespace c2h::ir {

const char *opcodeName(Opcode op) {
  switch (op) {
  case Opcode::Const: return "const";
  case Opcode::Copy: return "copy";
  case Opcode::Add: return "add";
  case Opcode::Sub: return "sub";
  case Opcode::Mul: return "mul";
  case Opcode::DivS: return "divs";
  case Opcode::DivU: return "divu";
  case Opcode::RemS: return "rems";
  case Opcode::RemU: return "remu";
  case Opcode::And: return "and";
  case Opcode::Or: return "or";
  case Opcode::Xor: return "xor";
  case Opcode::Not: return "not";
  case Opcode::Neg: return "neg";
  case Opcode::Shl: return "shl";
  case Opcode::ShrL: return "shrl";
  case Opcode::ShrA: return "shra";
  case Opcode::CmpEq: return "cmpeq";
  case Opcode::CmpNe: return "cmpne";
  case Opcode::CmpLtS: return "cmplts";
  case Opcode::CmpLtU: return "cmpltu";
  case Opcode::CmpLeS: return "cmples";
  case Opcode::CmpLeU: return "cmpleu";
  case Opcode::Mux: return "mux";
  case Opcode::Trunc: return "trunc";
  case Opcode::ZExt: return "zext";
  case Opcode::SExt: return "sext";
  case Opcode::Load: return "load";
  case Opcode::Store: return "store";
  case Opcode::ChanSend: return "send";
  case Opcode::ChanRecv: return "recv";
  case Opcode::Fork: return "fork";
  case Opcode::Delay: return "delay";
  case Opcode::Br: return "br";
  case Opcode::CondBr: return "condbr";
  case Opcode::Ret: return "ret";
  case Opcode::Call: return "call";
  case Opcode::Nop: return "nop";
  }
  return "?";
}

bool isTerminator(Opcode op) {
  return op == Opcode::Br || op == Opcode::CondBr || op == Opcode::Ret;
}

bool isPure(Opcode op) {
  switch (op) {
  case Opcode::Const: case Opcode::Copy: case Opcode::Add: case Opcode::Sub:
  case Opcode::Mul: case Opcode::DivS: case Opcode::DivU: case Opcode::RemS:
  case Opcode::RemU: case Opcode::And: case Opcode::Or: case Opcode::Xor:
  case Opcode::Not: case Opcode::Neg: case Opcode::Shl: case Opcode::ShrL:
  case Opcode::ShrA: case Opcode::CmpEq: case Opcode::CmpNe:
  case Opcode::CmpLtS: case Opcode::CmpLtU: case Opcode::CmpLeS:
  case Opcode::CmpLeU: case Opcode::Mux: case Opcode::Trunc:
  case Opcode::ZExt: case Opcode::SExt:
    return true;
  default:
    return false;
  }
}

bool isCommutative(Opcode op) {
  switch (op) {
  case Opcode::Add: case Opcode::Mul: case Opcode::And: case Opcode::Or:
  case Opcode::Xor: case Opcode::CmpEq: case Opcode::CmpNe:
    return true;
  default:
    return false;
  }
}

std::string Operand::str() const {
  if (isImm_)
    return imm_.toStringSigned() + ":" + std::to_string(imm_.width());
  return "%" + std::to_string(reg_.id) + ":" + std::to_string(reg_.width);
}

std::string Instr::str() const {
  std::ostringstream out;
  if (dst)
    out << "%" << dst->id << ":" << dst->width << " = ";
  out << opcodeName(op);
  if (op == Opcode::Const)
    out << " " << constValue.toStringSigned() << ":" << constValue.width();
  if (op == Opcode::Load || op == Opcode::Store)
    out << " @m" << memId;
  if (op == Opcode::ChanSend || op == Opcode::ChanRecv)
    out << " @c" << chanId;
  if (op == Opcode::Delay)
    out << " " << delayCycles;
  if (op == Opcode::Call)
    out << " " << callee;
  if (op == Opcode::Fork) {
    out << " [";
    for (std::size_t i = 0; i < processes.size(); ++i)
      out << (i ? ", " : "") << "f" << processes[i];
    out << "]";
  }
  for (const auto &operand : operands)
    out << " " << operand.str();
  if (target0)
    out << " -> " << target0->name();
  if (target1)
    out << ", " << target1->name();
  if (constraintId != 0)
    out << " !tc" << constraintId;
  return out.str();
}

Successors BasicBlock::successors() const {
  Instr *term = terminator();
  Successors out;
  if (!term)
    return out;
  if (term->target0)
    out.push_back(term->target0);
  if (term->target1)
    out.push_back(term->target1);
  return out;
}

BasicBlock *Function::newBlock(std::string name) {
  if (name.empty())
    name = "bb" + std::to_string(nextBlock_);
  blocks_.push_back(std::make_unique<BasicBlock>(nextBlock_++,
                                                 std::move(name)));
  return blocks_.back().get();
}

std::vector<BasicBlock *> Function::reversePostOrder() const {
  std::vector<BasicBlock *> post;
  std::set<const BasicBlock *> visited;
  // Iterative post-order DFS.
  if (!entry())
    return post;
  std::vector<std::pair<BasicBlock *, std::size_t>> stack{{entry(), 0}};
  visited.insert(entry());
  while (!stack.empty()) {
    auto &[block, next] = stack.back();
    auto succs = block->successors();
    if (next < succs.size()) {
      BasicBlock *s = succs[next++];
      if (visited.insert(s).second)
        stack.push_back({s, 0});
    } else {
      post.push_back(block);
      stack.pop_back();
    }
  }
  std::reverse(post.begin(), post.end());
  return post;
}

std::string Function::str() const {
  std::ostringstream out;
  out << (isProcess ? "process " : "func ") << name_ << "(";
  for (std::size_t i = 0; i < params_.size(); ++i)
    out << (i ? ", " : "") << "%" << params_[i].id << ":" << params_[i].width;
  out << ")";
  if (returnWidth_ != 0)
    out << " -> " << returnWidth_;
  out << " {\n";
  for (const auto &c : constraints_)
    out << "  !tc" << c.id << " = [" << c.minCycles << ", "
        << (c.maxCycles == 0 ? std::string("inf")
                             : std::to_string(c.maxCycles))
        << "]\n";
  for (const auto &block : blocks_) {
    out << block->name() << ":\n";
    for (const auto &instr : block->instrs())
      out << "  " << instr->str() << "\n";
  }
  out << "}\n";
  return out.str();
}

std::unique_ptr<Function> Function::clone() const {
  auto copy = std::make_unique<Function>(name_, returnWidth_);
  copy->isProcess = isProcess;
  copy->params_ = params_;
  copy->nextVReg_ = nextVReg_;
  copy->nextBlock_ = nextBlock_;
  copy->constraints_ = constraints_;
  std::map<const BasicBlock *, BasicBlock *> remap;
  for (const auto &block : blocks_) {
    copy->blocks_.push_back(
        std::make_unique<BasicBlock>(block->id(), block->name()));
    remap[block.get()] = copy->blocks_.back().get();
  }
  for (std::size_t i = 0; i < blocks_.size(); ++i)
    for (const auto &instr : blocks_[i]->instrs()) {
      Instr *dup = copy->blocks_[i]->append(std::make_unique<Instr>(*instr));
      if (dup->target0)
        dup->target0 = remap.at(dup->target0);
      if (dup->target1)
        dup->target1 = remap.at(dup->target1);
    }
  return copy;
}

Function *Module::addFunction(std::string name, unsigned returnWidth) {
  functions_.push_back(std::make_unique<Function>(std::move(name),
                                                  returnWidth));
  return functions_.back().get();
}

Function *Module::findFunction(const std::string &name) const {
  for (const auto &fn : functions_)
    if (fn->name() == name)
      return fn.get();
  return nullptr;
}

unsigned Module::indexOf(const Function *fn) const {
  for (std::size_t i = 0; i < functions_.size(); ++i)
    if (functions_[i].get() == fn)
      return static_cast<unsigned>(i);
  return ~0u;
}

MemObject &Module::addMem(std::string name, unsigned width,
                          std::uint64_t depth) {
  MemObject mem;
  mem.id = static_cast<unsigned>(mems_.size());
  mem.name = std::move(name);
  mem.width = width;
  mem.depth = depth;
  mems_.push_back(std::move(mem));
  return mems_.back();
}

MemObject *Module::findMem(const std::string &name) {
  for (auto &m : mems_)
    if (m.name == name)
      return &m;
  return nullptr;
}

const MemObject *Module::findMem(const std::string &name) const {
  return const_cast<Module *>(this)->findMem(name);
}

ChanObject &Module::addChan(std::string name, unsigned width) {
  ChanObject chan;
  chan.id = static_cast<unsigned>(chans_.size());
  chan.name = std::move(name);
  chan.width = width;
  chans_.push_back(std::move(chan));
  return chans_.back();
}

const GlobalSlot *Module::findGlobal(const std::string &name) const {
  for (const auto &g : globalMap_)
    if (g.name == name)
      return &g;
  return nullptr;
}

std::string Module::str() const {
  std::ostringstream out;
  for (const auto &m : mems_) {
    out << "mem @m" << m.id << " " << m.name << " : " << m.width << " x "
        << m.depth << (m.readOnly ? " rom" : "") << "\n";
  }
  for (const auto &c : chans_)
    out << "chan @c" << c.id << " " << c.name << " : " << c.width << "\n";
  for (const auto &fn : functions_)
    out << fn->str();
  return out.str();
}

std::unique_ptr<Module> cloneModule(const Module &module) {
  auto copy = std::make_unique<Module>();
  for (const auto &fn : module.functions())
    copy->functions().push_back(fn->clone());
  copy->mems() = module.mems();
  copy->chans() = module.chans();
  copy->globalMap() = module.globalMap();
  return copy;
}

namespace {

// Appends fields to a fingerprint text.  Numbers end in ' '; strings are
// length-prefixed, so no field can run into the next.
class FingerprintWriter {
public:
  FingerprintWriter &operator<<(std::uint64_t n) {
    text_ += std::to_string(n);
    text_ += ' ';
    return *this;
  }
  FingerprintWriter &operator<<(const std::string &s) {
    *this << s.size();
    text_ += s;
    return *this;
  }
  FingerprintWriter &operator<<(const BitVector &v) {
    return *this << v.width() << v.toStringHex();
  }
  FingerprintWriter &operator<<(const VReg &r) { return *this << r.id << r.width; }
  FingerprintWriter &operator<<(const SourceLoc &loc) {
    return *this << loc.line << loc.column;
  }
  std::string take() { return std::move(text_); }

private:
  std::string text_;
};

void writeInstr(FingerprintWriter &out, const Instr &instr) {
  out << static_cast<unsigned>(instr.op) << (instr.dst ? 1u : 0u);
  if (instr.dst)
    out << *instr.dst;
  out << instr.operands.size();
  for (const auto &operand : instr.operands) {
    if (operand.isImm())
      out << 0u << operand.imm();
    else
      out << 1u << operand.reg();
  }
  out << instr.constValue << instr.memId << instr.chanId << instr.delayCycles
      << instr.processes.size();
  for (unsigned p : instr.processes)
    out << p;
  // Targets are in-function: a block id names one exactly.
  out << instr.callee << (instr.target0 ? instr.target0->id() + 1 : 0u)
      << (instr.target1 ? instr.target1->id() + 1 : 0u) << instr.constraintId
      << instr.loc;
}

} // namespace

Fingerprint fingerprint(const Module &module) {
  FingerprintWriter out;
  out << module.mems().size();
  for (const auto &m : module.mems()) {
    out << m.id << m.name << m.width << m.depth << (m.readOnly ? 1u : 0u)
        << m.init.size();
    for (const auto &word : m.init)
      out << word;
  }
  out << module.chans().size();
  for (const auto &c : module.chans())
    out << c.id << c.name << c.width;
  out << module.globalMap().size();
  for (const auto &g : module.globalMap())
    out << g.name << g.memId << g.base << g.words << g.width;
  out << module.functions().size();
  for (const auto &fn : module.functions()) {
    out << fn->name() << fn->returnWidth() << (fn->isProcess ? 1u : 0u)
        << fn->vregCount() << fn->blockIdCount() << fn->params().size();
    for (const auto &p : fn->params())
      out << p;
    out << fn->constraints().size();
    for (const auto &c : fn->constraints())
      out << c.id << c.minCycles << c.maxCycles;
    out << fn->blocks().size();
    for (const auto &block : fn->blocks()) {
      out << block->id() << block->name() << block->instrs().size();
      for (const auto &instr : block->instrs())
        writeInstr(out, *instr);
    }
  }
  Fingerprint fp;
  fp.text = out.take();
  fp.hash = fnv1a(fp.text);
  return fp;
}

// ---------------------------------------------------------------------------
// Verifier
// ---------------------------------------------------------------------------

std::vector<std::string> verify(const Module &module) {
  std::vector<std::string> problems;
  auto complain = [&](const std::string &where, const std::string &what) {
    problems.push_back(where + ": " + what);
  };

  for (const auto &fn : module.functions()) {
    std::set<const BasicBlock *> owned;
    for (const auto &b : fn->blocks())
      owned.insert(b.get());

    for (const auto &block : fn->blocks()) {
      std::string where = fn->name() + "/" + block->name();
      if (block->instrs().empty()) {
        complain(where, "empty block");
        continue;
      }
      if (!block->terminator())
        complain(where, "missing terminator");
      for (std::size_t i = 0; i < block->instrs().size(); ++i) {
        const Instr &instr = *block->instrs()[i];
        bool last = i + 1 == block->instrs().size();
        if (instr.isTerminator() && !last)
          complain(where, "terminator in the middle of a block");
        if (instr.target0 && owned.count(instr.target0) == 0)
          complain(where, "branch to foreign block");
        if (instr.target1 && owned.count(instr.target1) == 0)
          complain(where, "branch to foreign block");
        if (instr.op == Opcode::Load || instr.op == Opcode::Store) {
          if (instr.memId >= module.mems().size())
            complain(where, "reference to unknown memory");
          else if (instr.op == Opcode::Store &&
                   module.mems()[instr.memId].readOnly)
            complain(where, "store to read-only memory " +
                                module.mems()[instr.memId].name);
        }
        if ((instr.op == Opcode::ChanSend || instr.op == Opcode::ChanRecv) &&
            instr.chanId >= module.chans().size())
          complain(where, "reference to unknown channel");
        if (instr.op == Opcode::Fork)
          for (unsigned p : instr.processes)
            if (p >= module.functions().size())
              complain(where, "fork of unknown function");
        if (instr.op == Opcode::Call &&
            module.findFunction(instr.callee) == nullptr)
          complain(where, "call to unknown function " + instr.callee);
        // Width discipline for the common binary ops.
        switch (instr.op) {
        case Opcode::Add: case Opcode::Sub: case Opcode::Mul:
        case Opcode::DivS: case Opcode::DivU: case Opcode::RemS:
        case Opcode::RemU: case Opcode::And: case Opcode::Or:
        case Opcode::Xor:
          if (instr.operands.size() != 2)
            complain(where, std::string(opcodeName(instr.op)) +
                                " needs 2 operands");
          else if (instr.operands[0].width() != instr.operands[1].width() ||
                   !instr.dst || instr.dst->width != instr.operands[0].width())
            complain(where, std::string(opcodeName(instr.op)) +
                                " width mismatch: " + instr.str());
          break;
        case Opcode::CmpEq: case Opcode::CmpNe: case Opcode::CmpLtS:
        case Opcode::CmpLtU: case Opcode::CmpLeS: case Opcode::CmpLeU:
          if (instr.operands.size() != 2 ||
              instr.operands[0].width() != instr.operands[1].width())
            complain(where, "compare width mismatch: " + instr.str());
          else if (!instr.dst || instr.dst->width != 1)
            complain(where, "compare result must be 1 bit");
          break;
        case Opcode::Mux:
          if (instr.operands.size() != 3 ||
              instr.operands[0].width() != 1 ||
              instr.operands[1].width() != instr.operands[2].width() ||
              !instr.dst || instr.dst->width != instr.operands[1].width())
            complain(where, "mux width mismatch: " + instr.str());
          break;
        case Opcode::Trunc:
          if (instr.operands.size() != 1 || !instr.dst ||
              instr.dst->width > instr.operands[0].width())
            complain(where, "trunc must narrow: " + instr.str());
          break;
        case Opcode::ZExt: case Opcode::SExt:
          if (instr.operands.size() != 1 || !instr.dst ||
              instr.dst->width < instr.operands[0].width())
            complain(where, "ext must widen: " + instr.str());
          break;
        case Opcode::CondBr:
          if (instr.operands.size() != 1 || instr.operands[0].width() != 1)
            complain(where, "condbr needs a 1-bit condition");
          if (!instr.target0 || !instr.target1)
            complain(where, "condbr needs two targets");
          break;
        default:
          break;
        }
      }
    }
  }
  return problems;
}

} // namespace c2h::ir
