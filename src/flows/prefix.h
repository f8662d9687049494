// The pipeline prefix that several flows of one request share.
//
// Most of the surveyed languages differ only in how they schedule: HardwareC,
// Cyber, SystemC, SpecC, Bach C and CASH lower a program to byte-identical
// IR, and Handel-C and Ocapi use that same IR unoptimized.  Running the range
// gate, the optimizer and dead-branch pruning once per flow repeats the same
// work on identical input, and range analysis dominates a cold request.
//
// The CompareEngine makes one PrefixMemo per workload in a request and hands
// it to runFlowChecked through FlowTuning::prefix; a call without one makes
// a memo for itself, so every flow computes these stages one way.  It holds
//  * the pre-flight analysis: the error-severity par-race and channel
//    findings of the front-end cache's analyzer report, when the engine
//    hands that report over, and otherwise computed once from the request's
//    pristine AST (at that step every flow's clone is still identical to
//    it), and
//  * per distinct lowered module, keyed by ir::fingerprint and confirmed by a
//    full compare: the raw-IR checkRanges report and, once an optimizing
//    flow asks for it, the module after optimizeAndPrune, which every such
//    flow then shares read-only.
// Keys are content, never FlowSpec flags, so any flow that lowers identical
// IR shares the work, whatever its switches.  The engine also seeds the memo
// with the range gate the front-end cache's analyzer ran on its own lowered
// module (a RangeGate), so a flow that lowers an identical module finds its
// gate done: one range solve per distinct module per request.
//
// Thread-safe: cells asking for a result that another cell is computing wait
// for it.  A throw leaves the result empty for the next caller to compute, so
// only completed results are ever stored.  No computation asks the memo for
// another result, so holding one result's lock while computing it cannot
// deadlock.
#ifndef C2H_FLOWS_PREFIX_H
#define C2H_FLOWS_PREFIX_H

#include "analysis/diagnostic.h"
#include "frontend/ast.h"
#include "ir/ir.h"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace c2h::flows {

// optimizeModule, then range-driven dead-branch pruning (branches the
// interval analysis decides fold to unconditional jumps), then the cleanup
// passes again if pruning changed anything.
void optimizeAndPrune(ir::Module &module);

// A range gate run outside a memo: the checkRanges report of a module
// whose fingerprint is `key`.
struct RangeGate {
  ir::Fingerprint key;
  analysis::Report report;
};

class PrefixMemo {
  // A value computed at most once.  The lock is held while computing, so
  // callers arriving meanwhile wait for the result; a throw leaves the value
  // empty for the next caller.
  template <class T> class Once {
  public:
    template <class Compute> const T &get(Compute &&compute) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!value_)
        value_.emplace(compute());
      return *value_;
    }

  private:
    std::mutex mutex_;
    std::optional<T> value_;
  };

public:
  // One distinct lowered module's results.
  class Lowered {
  public:
    // analysis::checkRanges of a module with this entry's content.
    const analysis::Report &ranges(const ir::Module &raw);
    // optimizeAndPrune of a module with this entry's content.  The first
    // caller's `raw` becomes the shared result; later callers' are dropped.
    // Never mutate the result: take an ir::cloneModule to rewrite it.
    std::shared_ptr<const ir::Module> optimized(std::unique_ptr<ir::Module> raw);

  private:
    friend class PrefixMemo;
    ir::Fingerprint key_;
    Once<analysis::Report> ranges_;
    Once<std::shared_ptr<const ir::Module>> optimized_;
  };

  // `program` is the request's cached front-end AST and must outlive the
  // memo; `top` is the request's top function.  `analysis`, when given, is
  // analysis::analyzeProgram's report on `program` with that top;
  // `ranges`, when given, is the result of a range gate already run.
  PrefixMemo(const ast::Program &program, std::string top,
             std::shared_ptr<const analysis::Report> analysis = nullptr,
             std::optional<RangeGate> ranges = std::nullopt);

  // analysis::preflightFlow(program, top, false), read from `analysis`
  // when the memo has it.
  const analysis::Report &preflight();
  // The entry for `raw`'s content, created on first sight.
  Lowered &lowered(const ir::Module &raw);

private:
  const ast::Program &program_;
  std::string top_;
  std::shared_ptr<const analysis::Report> analysis_;
  Once<analysis::Report> preflight_;
  std::mutex mutex_;
  // Fingerprint hash -> entries; the vector absorbs hash collisions.
  std::map<std::uint64_t, std::vector<std::unique_ptr<Lowered>>> lowered_;
};

} // namespace c2h::flows

#endif // C2H_FLOWS_PREFIX_H
