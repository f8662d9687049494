#include "async/dataflow.h"

#include "ir/exec.h"
#include "support/text.h"

#include <algorithm>
#include <functional>
#include <map>

namespace c2h::async {

using ir::Opcode;

std::string AsyncCircuitInfo::str() const {
  return "async{nodes=" + std::to_string(nodes) +
         " memports=" + std::to_string(memPorts) +
         " steer=" + std::to_string(steerNodes) +
         " area=" + formatDouble(area, 1) + "}";
}

AsyncCircuitInfo buildCircuitInfo(const ir::Module &module,
                                  const ir::Function &fn,
                                  const sched::TechLibrary &lib) {
  AsyncCircuitInfo info;
  constexpr double kHandshakeArea = 3.0;  // req/ack latches per node
  constexpr double kSteerArea = 2.0;      // mu/eta token steering

  for (const auto &block : fn.blocks()) {
    for (const auto &instr : block->instrs()) {
      switch (instr->op) {
      case Opcode::Br:
      case Opcode::CondBr:
        // Every live value crossing this edge needs a steering node; we
        // approximate with one steer per branch target.
        info.steerNodes += instr->op == Opcode::CondBr ? 2 : 1;
        info.area += kSteerArea * (instr->op == Opcode::CondBr ? 2 : 1);
        break;
      case Opcode::Ret:
      case Opcode::Nop:
        break;
      case Opcode::Load:
      case Opcode::Store:
        ++info.memPorts;
        [[fallthrough]];
      default: {
        ++info.nodes;
        unsigned width = instr->dst ? instr->dst->width
                         : instr->operands.empty()
                             ? 1
                             : instr->operands[0].width();
        // No clock: delay model still prices the operator logic.
        sched::OpTiming t = lib.lookup(instr->op, width, 1e9);
        info.area += t.area + kHandshakeArea;
        break;
      }
      }
    }
  }
  for (const auto &mem : module.mems())
    info.area += lib.memoryArea(mem.width, mem.depth, mem.readOnly);
  return info;
}

AsyncSimResult simulateAsync(const ir::Module &module,
                             const std::string &fnName,
                             const std::vector<BitVector> &args,
                             const sched::TechLibrary &lib,
                             const AsyncSimOptions &options) {
  AsyncSimResult result;
  const ir::Function *fn = module.findFunction(fnName);
  if (!fn) {
    result.error = "no function named '" + fnName + "'";
    return result;
  }
  if (args.size() != fn->params().size()) {
    result.error = "argument count mismatch";
    return result;
  }

  struct Cell {
    BitVector value{1};
    double time = 0.0;
  };
  std::vector<std::vector<Cell>> mems;
  std::vector<double> memFree; // per-memory next-free time (sequentialized)
  for (const auto &mem : module.mems()) {
    std::vector<Cell> cells(mem.depth);
    for (auto &c : cells)
      c.value = BitVector(std::max(1u, mem.width));
    for (std::size_t i = 0; i < mem.init.size() && i < cells.size(); ++i)
      cells[i].value = mem.init[i];
    mems.push_back(std::move(cells));
    memFree.push_back(0.0);
  }

  std::uint64_t fired = 0;
  double makespan = 0.0;
  std::string failMessage;
  bool failed = false;
  auto fail = [&](const std::string &m) {
    failed = true;
    if (failMessage.empty())
      failMessage = m;
  };

  auto delayOf = [&](Opcode op, unsigned width) {
    sched::OpTiming t = lib.lookup(op, width, 1e9); // unclocked
    // Multi-step operators (the sequential divider) take latency steps of
    // delayNs each even without a clock.
    return t.delayNs * std::max(1u, t.latency) + options.handshakeNs;
  };

  struct Val {
    BitVector v{1};
    double t = 0.0;
  };

  std::function<Val(const ir::Function &, const std::vector<Val> &, double)>
      run = [&](const ir::Function &f, const std::vector<Val> &actuals,
                double startTime) -> Val {
    std::vector<Val> regs(f.vregCount());
    for (std::size_t i = 0; i < f.params().size(); ++i) {
      regs[f.params()[i].id].v =
          actuals[i].v.resize(f.params()[i].width, false);
      regs[f.params()[i].id].t = actuals[i].t;
    }
    auto val = [&](const ir::Operand &op) -> Val {
      if (op.isImm())
        return {op.imm(), startTime};
      return regs[op.reg().id];
    };

    // Control token: the time at which the current basic block's
    // activation token arrived (steering delay included).
    double blockToken = startTime;
    const ir::BasicBlock *block = f.entry();
    if (!block) {
      fail("function '" + f.name() + "' has no blocks");
      return {};
    }
    for (;;) {
      const ir::BasicBlock *next = nullptr;
      for (const auto &instrPtr : block->instrs()) {
        if (failed)
          return {};
        const ir::Instr &instr = *instrPtr;
        if (++fired > options.maxOperations) {
          result.verdict.kind = guard::Kind::StepLimit;
          result.verdict.stage = "async.sim";
          result.verdict.steps = options.maxOperations;
          fail("operation budget exceeded");
          return {};
        }
        if (options.budget && (fired & 1023) == 0) {
          try {
            options.budget->checkDeadline("async.sim");
          } catch (const guard::BudgetExceeded &e) {
            result.verdict = e.verdict;
            fail(e.verdict.str());
            return {};
          }
        }
        switch (instr.op) {
        case Opcode::Const:
          regs[instr.dst->id] = {instr.constValue, blockToken};
          break;
        case Opcode::Copy: {
          Val x = val(instr.operands[0]);
          regs[instr.dst->id] = {x.v, std::max(x.t, blockToken)};
          break;
        }
        case Opcode::Load: {
          auto &mem = mems.at(instr.memId);
          Val a = val(instr.operands[0]);
          std::uint64_t addr = a.v.toUint64();
          if (addr >= mem.size()) {
            fail("load out of bounds");
            return {};
          }
          double ready = std::max({a.t, blockToken, mem[addr].time,
                                   memFree[instr.memId]});
          double done = ready + delayOf(Opcode::Load, instr.dst->width);
          memFree[instr.memId] = done; // one access at a time
          regs[instr.dst->id] = {mem[addr].value, done};
          makespan = std::max(makespan, done);
          break;
        }
        case Opcode::Store: {
          auto &mem = mems.at(instr.memId);
          Val a = val(instr.operands[0]);
          Val v = val(instr.operands[1]);
          std::uint64_t addr = a.v.toUint64();
          if (addr >= mem.size()) {
            fail("store out of bounds");
            return {};
          }
          double ready =
              std::max({a.t, v.t, blockToken, memFree[instr.memId]});
          double done = ready + delayOf(Opcode::Store, v.v.width());
          memFree[instr.memId] = done;
          mem[addr] = {v.v.resize(mem[addr].value.width(), false), done};
          makespan = std::max(makespan, done);
          break;
        }
        case Opcode::Call: {
          const ir::Function *callee = module.findFunction(instr.callee);
          if (!callee) {
            fail("call to unknown function " + instr.callee);
            return {};
          }
          std::vector<Val> callArgs;
          double ready = blockToken;
          for (const auto &op : instr.operands) {
            callArgs.push_back(val(op));
            ready = std::max(ready, callArgs.back().t);
          }
          Val ret = run(*callee, callArgs, ready);
          if (failed)
            return {};
          if (instr.dst)
            regs[instr.dst->id] = {ret.v.resize(instr.dst->width, false),
                                   ret.t};
          break;
        }
        case Opcode::Ret: {
          if (!instr.operands.empty()) {
            Val v = val(instr.operands[0]);
            return {v.v, std::max(v.t, blockToken)};
          }
          return {BitVector(1), blockToken};
        }
        case Opcode::Br:
          next = instr.target0;
          blockToken += options.handshakeNs; // steering node
          break;
        case Opcode::CondBr: {
          Val c = val(instr.operands[0]);
          double resolved = std::max(c.t, blockToken) +
                            delayOf(Opcode::Mux, 1);
          makespan = std::max(makespan, resolved);
          next = c.v.isZero() ? instr.target1 : instr.target0;
          blockToken = resolved;
          break;
        }
        case Opcode::Delay:
        case Opcode::Nop:
          break;
        case Opcode::Fork:
        case Opcode::ChanSend:
        case Opcode::ChanRecv:
          fail("asynchronous dataflow synthesis accepts sequential C only");
          return {};
        default: {
          std::vector<BitVector> ops;
          double ready = blockToken;
          for (const auto &op : instr.operands) {
            Val v = val(op);
            ops.push_back(v.v);
            ready = std::max(ready, v.t);
          }
          double done = ready + delayOf(instr.op, instr.dst->width);
          regs[instr.dst->id] = {
              ir::IRExecutor::evalOp(instr.op, ops, instr.dst->width), done};
          makespan = std::max(makespan, done);
          break;
        }
        }
        if (next)
          break;
      }
      if (failed)
        return {};
      if (!next) {
        fail("block " + block->name() + " fell through");
        return {};
      }
      // Ret handled inside the loop; otherwise continue with `next`.
      if (next == block)
        blockToken += options.handshakeNs;
      block = next;
    }
  };

  std::vector<Val> in;
  for (const auto &a : args)
    in.push_back({a, 0.0});
  Val out = run(*fn, in, 0.0);
  result.operations = fired;
  if (failed) {
    result.error = failMessage;
    return result;
  }
  result.ok = true;
  result.returnValue = out.v;
  result.timeNs = std::max(makespan, out.t);
  return result;
}

} // namespace c2h::async
