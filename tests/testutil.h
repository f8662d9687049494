// Shared helpers for tests: string scanning of emitted artifacts, the
// dynamic cross-check that replays a program and verifies every claim the
// static range analysis made about it, and a latch that shows how many
// cells of an engine call run at once.
#ifndef C2H_TESTS_TESTUTIL_H
#define C2H_TESTS_TESTUTIL_H

#include "analysis/range.h"
#include "core/engine.h"
#include "ir/exec.h"
#include "ir/ir.h"
#include "opt/widthinfer.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

namespace c2h::testutil {

// Number of (non-overlapping) occurrences of `needle` in `text`.
inline unsigned countOf(const std::string &text, const std::string &needle) {
  unsigned n = 0;
  std::size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    ++n;
    pos += needle.size();
  }
  return n;
}

inline bool contains(const std::string &text, const std::string &needle) {
  return text.find(needle) != std::string::npos;
}

// ---------------------------------------------------------------------------
// Static-claim soundness checking.
//
// The range analysis (analysis/range.h) makes four kinds of claims about a
// program: per-vreg interval bounds, per-vreg effective widths (through
// opt::inferWidths), per-block reachability, and per-branch decided
// directions.  None of them is allowed to be wrong — a claim contradicted
// by any execution is a soundness bug, not an imprecision.  This replayer
// runs a sequential function concretely and reports every contradiction.

struct ClaimCheckResult {
  bool executed = false; // reached Ret within the step budget
  std::vector<std::string> violations;
};

// Execute `fn(args)` and check each runtime event against the analysis:
//  * every executed block must be claimed reachable, and each vreg its
//    entry state holds (the vregs live into it) must lie inside its
//    claimed interval;
//  * every value written to a vreg must lie inside its global interval
//    fact and fit its inferred width under the recorded contract
//    (sign-extension-faithful when narrowedSigned, unsigned otherwise);
//  * every taken CondBr direction must match a decided claim if one exists;
//  * every loaded value must lie inside the memory's content summary.
// Functions using calls, channels, or forks are skipped (executed=false,
// no violations): the replayer only models sequential dataflow.  `widths`
// may be null to skip width-contract checking.
inline ClaimCheckResult
checkStaticClaims(const ir::Module &module, const ir::Function &fn,
                  const analysis::RangeAnalysis &ranges,
                  const opt::WidthInference *widths,
                  const std::vector<BitVector> &args,
                  std::uint64_t maxSteps = 500000) {
  ClaimCheckResult out;
  const analysis::FunctionRanges *fr = ranges.of(fn);
  if (!fr || !fn.entry())
    return out;
  for (const auto &block : fn.blocks())
    for (const auto &instr : block->instrs())
      switch (instr->op) {
      case ir::Opcode::Call:
      case ir::Opcode::Fork:
      case ir::Opcode::ChanSend:
      case ir::Opcode::ChanRecv:
        return out; // not modeled here
      default:
        break;
      }

  auto fail = [&](const std::string &what) {
    std::ostringstream msg;
    msg << fn.name() << ": " << what;
    out.violations.push_back(msg.str());
  };

  std::vector<std::vector<BitVector>> mems;
  for (const auto &mem : module.mems()) {
    std::vector<BitVector> cells(mem.depth, BitVector(std::max(1u, mem.width)));
    for (std::size_t i = 0; i < mem.init.size() && i < cells.size(); ++i)
      cells[i] = mem.init[i];
    mems.push_back(std::move(cells));
  }

  std::vector<BitVector> regs(fn.vregCount(), BitVector(1));
  for (std::size_t i = 0; i < fn.params().size() && i < args.size(); ++i)
    regs[fn.params()[i].id] = args[i].resize(fn.params()[i].width, false);
  auto val = [&](const ir::Operand &op) {
    return op.isImm() ? op.imm() : regs[op.reg().id];
  };

  // A value written to vreg `id` (declared width `declaredW`): inside the
  // global interval fact, and fitting the inferred width.
  auto checkWrite = [&](unsigned id, unsigned declaredW, const BitVector &v) {
    if (widths) {
      unsigned w = widths->widthOf(id, declaredW);
      if (widths->signedAt(id)) {
        if (w < v.width() && !v.trunc(w).sext(v.width()).eq(v))
          fail("%r" + std::to_string(id) + " = " + v.toStringHex() +
               " does not sign-extend from claimed " + std::to_string(w) +
               " bits");
      } else if (v.activeBits() > w) {
        fail("%r" + std::to_string(id) + " = " + v.toStringHex() +
             " exceeds claimed " + std::to_string(w) + " bits");
      }
    }
    auto fIt = fr->facts.vregs.find(id);
    if (fIt != fr->facts.vregs.end() && declaredW <= 64) {
      std::int64_t sv = v.toInt64();
      if (sv < fIt->second.lo || sv > fIt->second.hi)
        fail("%r" + std::to_string(id) + " = " + std::to_string(sv) +
             " outside claimed interval [" + std::to_string(fIt->second.lo) +
             ", " + std::to_string(fIt->second.hi) + "]");
    }
  };

  const ir::BasicBlock *block = fn.entry();
  std::uint64_t steps = 0;
  for (;;) {
    if (++steps > maxSteps)
      return out; // budget exhausted: not a soundness verdict
    // Reachability and entry-state claims.
    auto eIt = fr->entry.find(block);
    if (eIt == fr->entry.end()) {
      fail("executed block " + block->name() + " claimed unreachable");
      return out;
    }
    for (const auto &[id, iv] : eIt->second.regs) {
      if (!iv.known() || id >= regs.size())
        continue;
      std::int64_t sv = regs[id].toInt64();
      if (sv < iv.lo || sv > iv.hi)
        fail("at entry of " + block->name() + ": %r" + std::to_string(id) +
             " = " + std::to_string(sv) + " outside claimed " + iv.str());
    }

    const ir::BasicBlock *next = nullptr;
    for (const auto &instrPtr : block->instrs()) {
      const ir::Instr &instr = *instrPtr;
      switch (instr.op) {
      case ir::Opcode::Const:
        regs[instr.dst->id] = instr.constValue;
        checkWrite(instr.dst->id, instr.dst->width, instr.constValue);
        break;
      case ir::Opcode::Load: {
        auto &mem = mems.at(instr.memId);
        std::uint64_t addr = val(instr.operands[0]).toUint64();
        if (addr >= mem.size()) {
          fail("load address " + std::to_string(addr) + " out of range");
          return out;
        }
        const BitVector &v = mem[addr];
        if (instr.memId < ranges.memValues.size()) {
          const analysis::Interval &iv = ranges.memValues[instr.memId];
          if (iv.known() && v.width() <= 64) {
            std::int64_t sv = v.toInt64();
            if (sv < iv.lo || sv > iv.hi)
              fail("loaded value " + std::to_string(sv) +
                   " outside memory summary " + iv.str());
          }
        }
        regs[instr.dst->id] = v;
        checkWrite(instr.dst->id, instr.dst->width, v);
        break;
      }
      case ir::Opcode::Store: {
        auto &mem = mems.at(instr.memId);
        std::uint64_t addr = val(instr.operands[0]).toUint64();
        if (addr >= mem.size()) {
          fail("store address " + std::to_string(addr) + " out of range");
          return out;
        }
        mem[addr] = val(instr.operands[1]).resize(mem[addr].width(), false);
        break;
      }
      case ir::Opcode::Br:
        next = instr.target0;
        break;
      case ir::Opcode::CondBr: {
        bool takeTrue = !val(instr.operands[0]).isZero();
        auto dIt = fr->decided.find(&instr);
        if (dIt != fr->decided.end() && dIt->second != takeTrue)
          fail("decided branch in " + block->name() + " went the other way");
        next = takeTrue ? instr.target0 : instr.target1;
        break;
      }
      case ir::Opcode::Ret:
        out.executed = true;
        return out;
      case ir::Opcode::Nop:
      case ir::Opcode::Delay:
        break;
      default: {
        std::vector<BitVector> ops;
        for (const auto &op : instr.operands)
          ops.push_back(val(op));
        BitVector v = ir::IRExecutor::evalOp(instr.op, ops, instr.dst->width);
        regs[instr.dst->id] = v;
        checkWrite(instr.dst->id, instr.dst->width, v);
        break;
      }
      }
      if (next)
        break;
    }
    if (!next) {
      fail("block " + block->name() + " fell through without terminator");
      return out;
    }
    block = next;
  }
}

// ---------------------------------------------------------------------------
// Cell concurrency.
//
// A runner for CompareEngine::setRunnerForTesting that holds each cell until
// `target` cells are in flight at once (or every cell of the call has
// started, so none is left to come), then runs the real flow, and records
// the most cells it saw in flight.  No sleeps: the 10 s wait only ends a run
// that would otherwise hang, and marks the latch timed out.
class CellLatch {
public:
  explicit CellLatch(std::size_t cells) : cells_(cells) {}

  // Re-arm for one call.
  void arm(std::size_t target) {
    std::lock_guard<std::mutex> lock(mutex_);
    target_ = target;
    started_ = peak_ = 0;
  }
  std::size_t peak() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return peak_;
  }
  bool timedOut() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return timedOut_;
  }

  core::CompareEngine::FlowRunner runner() {
    return [this](const flows::FlowSpec &spec, ast::Program &program,
                  TypeContext &types, const std::string &top,
                  const flows::FlowTuning &tuning) {
      {
        std::unique_lock<std::mutex> lock(mutex_);
        ++started_;
        peak_ = std::max(peak_, ++inFlight_);
        cv_.notify_all();
        if (!cv_.wait_for(lock, std::chrono::seconds(10), [&] {
              return timedOut_ || inFlight_ >= target_ || started_ == cells_;
            }))
          timedOut_ = true;
      }
      flows::FlowResult result =
          flows::runFlowChecked(spec, program, types, top, tuning);
      std::lock_guard<std::mutex> lock(mutex_);
      --inFlight_;
      return result;
    };
  }

private:
  const std::size_t cells_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::size_t target_ = 0, inFlight_ = 0, started_ = 0, peak_ = 0;
  bool timedOut_ = false;
};

} // namespace c2h::testutil

#endif // C2H_TESTS_TESTUTIL_H
