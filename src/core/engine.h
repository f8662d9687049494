// The fault-isolated, parallel flow-comparison engine.
//
// The paper's central exercise — and this repo's hottest path — is running
// the same program through every surveyed language's synthesis policy and
// comparing the results.  Three problems with doing that naively:
//
//  1. Robustness: one misbehaving flow (a throw anywhere in its pipeline
//     or verification) used to abort the whole survey.  The engine wraps
//     every (flow, workload) cell in per-flow exception isolation: a throw
//     becomes a FlowComparison row with accepted=false and a note starting
//     "internal error:", and every other row is produced normally.
//  2. Redundant work: lex/parse/sema ran once per (flow, workload) on
//     identical source.  The FrontendCache compiles each (source, top)
//     once; every flow gets a private deep clone of the checked AST (via
//     opt::cloneProgram) before its flow-specific mutations.  Past the front
//     end most flows lower identical IR, so each workload of a call gets a
//     request-scoped flows::PrefixMemo (FlowTuning::prefix): the pre-flight
//     analysis runs once per workload, and the range gate and the
//     optimize/prune step once per distinct lowered module, whose optimized
//     form the flows share read-only.  Callers outside the engine (runFlow
//     and other direct runFlowChecked callers) pass none, and each call
//     makes its own.
//     Verification shares work the same way: the golden model runs once
//     per workload of a call (GoldenMemo; only a run no guard event stopped
//     is kept, and a cell with a step, cycle or alloc limit runs its own),
//     and cosim takes the cell's golden run and FSMD cycle count from its
//     verify step, so each witness is computed once per cell at most.
//  3. Serialism: cells are independent, so the engine runs the
//     (flow x workload) matrix on a fixed-size ThreadPool.  Results are
//     written into pre-assigned slots, so row order — and content — is
//     byte-identical whatever the thread count or completion order.  While
//     a fault is armed the cells run serially in cell order, so `site:nth`
//     names the same hit at every thread count.
//
// Every comparison and every c2hc synthesis run goes through one cell
// routine: a pipeline half (front end -> clone -> flow) and a check half
// (golden run -> verify -> cosim).  Callers that render more than the row
// take whole Cells through a sink.
#ifndef C2H_CORE_ENGINE_H
#define C2H_CORE_ENGINE_H

#include "core/c2h.h"
#include "support/lru.h"
#include "support/threadpool.h"

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace c2h::core {

// Compile-once cache for the front end, keyed by (source, top).
// Entries are immutable after creation except for their TypeContext, whose
// interning is internally synchronized (flows intern types while inlining).
//
// The cache is optionally *bounded*: setCapacityBytes(N) caps the resident
// set (approximate per-entry cost, see entryCost) with LRU eviction, which
// is what lets a long-lived `c2hc --serve` daemon hold the hot working set
// without growing forever.  Evicted entries stay alive for whoever still
// holds the shared_ptr; a later get() for the same key simply recompiles
// (a miss), so eviction is always safe, never wrong.  The recency, cost and
// counter bookkeeping is support::LruCache's; this class adds the compile,
// which runs under the cache's mutex so concurrent gets of one source
// compile it once.
class FrontendCache {
public:
  struct Entry {
    std::string source, top; // the key (entryCost reads its size)
    std::string error;       // frontend diagnostics when compilation failed
    // Structured cause when the frontend stopped on a guard event (budget
    // trip or injected frontend.parse/frontend.sema fault); kind None for
    // plain diagnostics.
    guard::Verdict verdict;
    TypeContext types;       // owns every Type the cached AST points at
    std::unique_ptr<ast::Program> program; // null when !ok()
    // The synthesizability analyzer's findings, computed once per cached
    // compile (not once per flow) and shared by every result row.  Null
    // when the frontend failed.
    std::shared_ptr<const analysis::Report> analysis;

    bool ok() const { return program != nullptr; }
    // A private, fully remapped deep clone (opt::cloneProgram).  The clone
    // shares only interned Type pointers with the cached AST, so mutating
    // it (inlining, unrolling) never leaks into other flows' clones.
    std::unique_ptr<ast::Program> cloneAst() const;
  };

  // Lex/parse/sema `source` once; subsequent calls with the same
  // (source, top) return the cached entry.  Thread-safe.
  std::shared_ptr<Entry> get(const std::string &source, const std::string &top);

  // Non-compiling probe: is (source, top) resident right now?  Thread-safe;
  // does not touch LRU order or the hit/miss counters.
  bool contains(const std::string &source, const std::string &top) const;

  // LRU byte cap; 0 (the default) = unbounded, preserving the one-shot
  // CLI's behavior.  Shrinking below the current resident size evicts
  // immediately.  Thread-safe.
  void setCapacityBytes(std::uint64_t bytes);

  // Approximate resident cost of one entry: the source text plus a fixed
  // multiple for the AST/types/analysis it anchors.  Deliberately cheap and
  // monotone in source size — the cap is a resource guard, not an
  // accountant.
  static std::uint64_t entryCost(const Entry &entry);

  // Counters and sizes, read at one instant.  Thread-safe.
  support::CacheStats stats() const;
  std::uint64_t hits() const { return stats().hits; }
  std::uint64_t misses() const { return stats().misses; }
  std::uint64_t evictions() const { return stats().evictions; }
  std::uint64_t sizeBytes() const { return stats().size; }
  std::uint64_t capacityBytes() const { return stats().capacity; }

private:
  mutable std::mutex mutex_;
  // Only cached (non-guard-event) entries are resident; each costs
  // entryCost.
  support::LruCache<std::shared_ptr<Entry>> lru_;
};

struct EngineOptions {
  // Default worker-thread count; 0 = hardware concurrency.  A per-call
  // FlowTuning::jobs overrides this.
  unsigned jobs = 0;
  // Three-model differential mode: after a cell verifies, re-execute the
  // emitted Verilog under vsim and require agreement with the interpreter
  // (return value, checked globals) and the FSMD simulator (exact cycle
  // count).  Fills FlowComparison::cosim* fields; a mismatch is a
  // structured row note, not an exception.
  bool cosim = false;
  // vsim backend for cosim mode: the cycle-compiled bytecode VM (default,
  // with silent fallback to the event engine outside its subset) or the
  // event-driven reference evaluator.
  vsim::SimEngine vsimEngine = vsim::SimEngine::Compiled;
  // Optional cross-request vsim model cache (non-owning; may be null).
  // The cosim service points this at its per-daemon cache so repeat
  // requests over the same synthesized design skip parse/elaborate/compile
  // and reuse the post-`initial` init image.
  vsim::ModelCache *modelCache = nullptr;
};

// One (flow, workload) cell: its row and what the row was computed from.
struct Cell {
  FlowComparison row;
  // Empty when the front end failed or the cell contained a throw.
  std::optional<flows::FlowResult> result;
  // The golden run the check half verified against; null when none ran.
  std::shared_ptr<const GoldenRun> golden;
};

class CompareEngine {
public:
  explicit CompareEngine(EngineOptions options = {});

  // Every registered flow over one workload; rows in registry order.
  std::vector<FlowComparison> compareFlows(const Workload &workload,
                                           const flows::FlowTuning &tuning = {});
  // An explicit flow list over one workload (tests inject fakes here).
  std::vector<FlowComparison>
  compareFlows(const Workload &workload,
               const std::vector<flows::FlowSpec> &specs,
               const flows::FlowTuning &tuning = {});
  // Per-call engine options: the cosim service flips cosim mode and the
  // vsim backend per request while sharing this engine's front-end cache
  // and worker pool across every request it serves.
  std::vector<FlowComparison> compareFlows(const Workload &workload,
                                           const flows::FlowTuning &tuning,
                                           const EngineOptions &callOptions);
  // The full matrix: result[i] is workloads[i]'s rows in registry order.
  // One thread pool spans all cells, so small workloads don't serialize.
  std::vector<std::vector<FlowComparison>>
  compareMatrix(const std::vector<Workload> &workloads,
                const flows::FlowTuning &tuning = {});

  // Takes cell (w, f), workloads[w] under specs[f], once, on the thread
  // that ran it; calls may be concurrent, so each writes only its own slot.
  using CellSink =
      std::function<void(std::size_t w, std::size_t f, Cell &&cell)>;
  // Every (workload, spec) cell, both halves, each handed to `sink`.
  // Serial at one job, at one cell, or while a fault is armed.
  void compareCells(std::span<const Workload> workloads,
                    std::span<const flows::FlowSpec> specs,
                    const flows::FlowTuning &tuning,
                    const EngineOptions &options, const CellSink &sink);
  // One cell's pipeline half alone (no golden run, verify or cosim).
  Cell synthesize(const flows::FlowSpec &spec, const Workload &workload,
                  const flows::FlowTuning &tuning = {});

  FrontendCache &cache() { return cache_; }

  // Test seam: replaces flows::runFlowChecked for every cell.  A runner
  // that throws exercises the fault-isolation contract.
  using FlowRunner = std::function<flows::FlowResult(
      const flows::FlowSpec &, ast::Program &, TypeContext &,
      const std::string &top, const flows::FlowTuning &)>;
  void setRunnerForTesting(FlowRunner runner);

private:
  // One workload's golden-model run within one call (engine.cpp).
  class GoldenMemo;

  // One cell under its own meter and fault isolation: the pipeline half,
  // then, given a golden memo, the check half.
  Cell runCell(const flows::FlowSpec &spec, const Workload &workload,
               FrontendCache::Entry &entry, const flows::FlowTuning &tuning,
               const EngineOptions &options, GoldenMemo *golden);
  Cell synthesizeCell(const flows::FlowSpec &spec, const Workload &workload,
                      FrontendCache::Entry &entry,
                      const flows::FlowTuning &tuning);
  // For a cell whose flow succeeded.
  static void checkCell(Cell &cell, const Workload &workload,
                        const FrontendCache::Entry &entry,
                        guard::ExecBudget *meter, const EngineOptions &options,
                        GoldenMemo &golden);
  // compareCells keeping only the rows (result[w][f]); the rest of each
  // cell dies with it.
  std::vector<std::vector<FlowComparison>>
  compareRows(std::span<const Workload> workloads,
              std::span<const flows::FlowSpec> specs,
              const flows::FlowTuning &tuning, const EngineOptions &options);
  // A fresh prefix memo for one workload of a request, installed in
  // `tuning.prefix`; null (and no memo) when the front end failed.
  static std::unique_ptr<flows::PrefixMemo>
  requestMemo(const FrontendCache::Entry &entry, const std::string &top,
              flows::FlowTuning &tuning);
  unsigned resolveJobs(const flows::FlowTuning &tuning) const;
  // The engine's persistent worker pool, created lazily on the first
  // parallel call and reused by every later batch (TaskGroup-scoped), so a
  // long-lived daemon never rebuilds threads per request.  Sized by the
  // first parallel call's resolved jobs; callers that need a specific width
  // fix it via EngineOptions::jobs.
  ThreadPool &sharedPool(unsigned jobs);

  EngineOptions options_;
  FrontendCache cache_;
  FlowRunner runner_;
  std::mutex poolMutex_;
  std::unique_ptr<ThreadPool> pool_;
};

} // namespace c2h::core

#endif // C2H_CORE_ENGINE_H
