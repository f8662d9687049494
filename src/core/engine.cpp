#include "core/engine.h"

#include "analysis/analyzer.h"
#include "flows/prefix.h"
#include "opt/astclone.h"
#include "support/threadpool.h"

#include <algorithm>
#include <optional>

namespace c2h::core {

namespace {

// The top's length prefix keeps (source, top) pairs apart whatever bytes
// either one holds.
std::string cacheKey(const std::string &source, const std::string &top) {
  return std::to_string(top.size()) + ':' + top + source;
}

// Fires at the top of every (flow, workload) cell — the chaos suite's
// probe that one poisoned cell leaves siblings and the shared front-end
// cache untouched.
guard::FaultSite siteCell("engine.cell");

} // namespace

// The golden model is deterministic, so every cell of a workload in one
// call can read one run.  The first cell to verify computes it under its
// own meter while later cells wait, the way flows::PrefixMemo computes a
// shared prefix.  Only a run that no guard event stopped is kept: a budget
// trip or injected fault belongs to the cell that hit it, and the next cell
// runs the model again.  A cell whose meter limits steps, cycles or
// allocation runs its own model, so what it charges — and any verdict it
// trips — never depends on which cell came first.
class CompareEngine::GoldenMemo {
public:
  GoldenMemo(const Workload &workload, const ast::Program *program)
      : workload_(workload), program_(program) {}

  // The golden run for a cell metered by `meter`.  A run that is not
  // shared lands in `local`, which must outlive the returned reference.
  const GoldenRun &get(guard::ExecBudget *meter, GoldenRun &local) {
    const guard::BudgetSpec &spec = meter->spec();
    if (spec.maxSteps || spec.maxCycles || spec.maxAllocBytes)
      return local = runGoldenModel(workload_, *program_, meter);
    std::lock_guard<std::mutex> lock(mutex_);
    if (value_)
      return *value_;
    GoldenRun run = runGoldenModel(workload_, *program_, meter);
    if (!run.verdict.ok())
      return local = std::move(run);
    return value_.emplace(std::move(run));
  }

private:
  const Workload &workload_;
  const ast::Program *program_; // the front-end cache's AST; null on failure
  std::mutex mutex_;
  std::optional<GoldenRun> value_;
};

std::unique_ptr<ast::Program> FrontendCache::Entry::cloneAst() const {
  return program ? opt::cloneProgram(*program) : nullptr;
}

std::shared_ptr<FrontendCache::Entry>
FrontendCache::get(const std::string &source, const std::string &top) {
  support::LruKey key = cacheKey(source, top);
  std::lock_guard<std::mutex> lock(mutex_);
  if (std::shared_ptr<Entry> *hit = lru_.find(key))
    return *hit;
  auto entry = std::make_shared<Entry>();
  entry->source = source;
  entry->top = top;
  DiagnosticEngine diags;
  // The compile is isolated like a flow cell: a guard event (injected
  // frontend fault, deadline trip) or a throwing analysis pass becomes a
  // failed entry — every dependent row reports it, siblings on other
  // workloads are untouched, and the cache itself stays consistent.
  try {
    entry->program = frontend(source, entry->types, diags);
  } catch (const guard::GuardEvent &e) {
    entry->verdict = e.verdict;
    entry->error = e.verdict.str();
  } catch (const std::exception &e) {
    entry->error = std::string("internal error: ") + e.what();
  }
  if (!entry->program) {
    if (entry->error.empty())
      entry->error = diags.str();
  } else {
    // Analyze once per compile, not once per (flow, workload) cell.  The
    // IR-level lints need a lowered module; lower a private clone so the
    // cached AST stays pristine for the flows.
    try {
      analysis::AnalyzeOptions opts;
      opts.top = top;
      std::unique_ptr<ir::Module> module;
      DiagnosticEngine lowerDiags;
      std::unique_ptr<ast::Program> clone = opt::cloneProgram(*entry->program);
      opt::inlineFunctions(*clone, entry->types, lowerDiags);
      if (!lowerDiags.hasErrors()) {
        opt::removeUnusedFunctions(*clone, top);
        module = ir::lowerToIR(*clone, lowerDiags);
        if (lowerDiags.hasErrors())
          module.reset();
      }
      entry->analysis = std::make_shared<const analysis::Report>(
          analysis::analyzeProgram(*entry->program, module.get(), opts));
    } catch (const std::exception &e) {
      entry->program.reset();
      entry->error = std::string("internal error: analysis: ") + e.what();
    }
  }
  // Guard-event failures (injected fault, budget trip) are transient: a
  // later call may run disarmed or with a larger budget.  Return the failed
  // entry to this caller but never cache it, so one faulted run can't
  // poison the shared cache for clean runs that follow.
  if (entry->verdict.ok())
    lru_.insert(std::move(key), entry, entryCost(*entry));
  return entry;
}

bool FrontendCache::contains(const std::string &source,
                             const std::string &top) const {
  support::LruKey key = cacheKey(source, top);
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.contains(key);
}

std::uint64_t FrontendCache::entryCost(const Entry &entry) {
  // Source text dominates the key; the 8x multiplier stands in for the AST,
  // interned types, and analysis report the entry anchors, and the constant
  // floors tiny programs so a cap of N bytes admits O(N/kB) entries at most.
  return entry.source.size() * 8 + entry.top.size() + 1024;
}

void FrontendCache::setCapacityBytes(std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  lru_.setCapacity(bytes);
}

support::CacheStats FrontendCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.stats();
}

CompareEngine::CompareEngine(EngineOptions options)
    : options_(options),
      runner_([](const flows::FlowSpec &spec, ast::Program &program,
                 TypeContext &types, const std::string &top,
                 const flows::FlowTuning &tuning) {
        return flows::runFlowChecked(spec, program, types, top, tuning);
      }) {}

void CompareEngine::setRunnerForTesting(FlowRunner runner) {
  runner_ = std::move(runner);
}

unsigned CompareEngine::resolveJobs(const flows::FlowTuning &tuning) const {
  if (tuning.jobs && *tuning.jobs)
    return *tuning.jobs;
  if (options_.jobs)
    return options_.jobs;
  return ThreadPool::hardwareThreads();
}

ThreadPool &CompareEngine::sharedPool(unsigned jobs) {
  std::lock_guard<std::mutex> lock(poolMutex_);
  if (!pool_)
    pool_ = std::make_unique<ThreadPool>(jobs);
  return *pool_;
}

FlowComparison CompareEngine::runCell(const flows::FlowSpec &spec,
                                      const Workload &workload,
                                      FrontendCache::Entry &entry,
                                      const flows::FlowTuning &tuning,
                                      const EngineOptions &options,
                                      GoldenMemo &goldenMemo) {
  FlowComparison row;
  row.flowId = spec.info.id;
  // One meter per cell, shared by the pipeline, golden-model verification,
  // and co-simulation — so a cell's budget is truly per-cell and a runaway
  // flow can never starve a sibling.
  guard::ExecBudget localMeter(tuning.budget);
  flows::FlowTuning cellTuning = tuning;
  guard::ExecBudget *meter = tuning.meter ? tuning.meter : &localMeter;
  cellTuning.meter = meter;
  try {
    siteCell.hit();
    if (!entry.ok()) {
      row.note = "frontend: " + entry.error;
      row.verdict = entry.verdict;
      return row;
    }
    std::unique_ptr<ast::Program> program = entry.cloneAst();
    flows::FlowResult result =
        runner_(spec, *program, entry.types, workload.top, cellTuning);
    row.analysis = entry.analysis;
    row.accepted = result.accepted;
    if (!result.accepted) {
      row.note = result.rejections.empty() ? "rejected"
                                           : result.rejections.front();
      return row;
    }
    if (!result.ok) {
      row.note = result.error;
      row.verdict = result.verdict;
      return row;
    }
    GoldenRun local;
    const GoldenRun &golden = goldenMemo.get(meter, local);
    Verification v = verifyAgainstGoldenModel(workload, result, *entry.program,
                                              golden, meter);
    row.verified = v.ok;
    if (!v.ok) {
      row.note = v.detail;
      row.verdict = v.verdict;
    }
    row.cycles = v.cycles;
    row.asyncNs = v.asyncNs;
    if (options.cosim && v.ok && result.design && !result.asyncInfo) {
      CosimVerification cv = cosimAgainstGoldenModel(
          workload, result, *entry.program, golden, v.cycles,
          options.vsimEngine, meter, options.modelCache);
      row.cosimRan = cv.ran;
      row.cosimOk = cv.ok;
      row.cosimCycles = cv.cycles;
      row.degradation = cv.degradation;
      row.cosimEngine = cv.engine;
      row.cosimFallback = cv.fallback;
      if (cv.ran && !cv.ok) {
        row.cosimNote = cv.detail;
        row.verdict = cv.verdict;
      }
    }
    if (result.asyncInfo) {
      row.areaTotal = result.asyncInfo->area;
    } else {
      row.areaTotal = result.area.total();
      row.fmaxMHz = result.timing.fmaxMHz;
    }
    return row;
  } catch (const guard::GuardEvent &e) {
    row = FlowComparison{};
    row.flowId = spec.info.id;
    row.verdict = e.verdict;
    row.note = e.verdict.str();
    return row;
  } catch (const std::exception &e) {
    row = FlowComparison{};
    row.flowId = spec.info.id;
    row.note = std::string("internal error: ") + e.what();
    return row;
  } catch (...) {
    row = FlowComparison{};
    row.flowId = spec.info.id;
    row.note = "internal error: non-standard exception";
    return row;
  }
}

std::vector<FlowComparison>
CompareEngine::compareFlows(const Workload &workload,
                            const flows::FlowTuning &tuning) {
  return compareFlowsImpl(workload, flows::allFlows(), tuning, options_);
}

std::vector<FlowComparison>
CompareEngine::compareFlows(const Workload &workload,
                            const std::vector<flows::FlowSpec> &specs,
                            const flows::FlowTuning &tuning) {
  return compareFlowsImpl(workload, specs, tuning, options_);
}

std::vector<FlowComparison>
CompareEngine::compareFlows(const Workload &workload,
                            const flows::FlowTuning &tuning,
                            const EngineOptions &callOptions) {
  return compareFlowsImpl(workload, flows::allFlows(), tuning, callOptions);
}

std::unique_ptr<flows::PrefixMemo>
CompareEngine::requestMemo(const FrontendCache::Entry &entry,
                           const std::string &top, flows::FlowTuning &tuning) {
  auto memo = entry.ok()
                  ? std::make_unique<flows::PrefixMemo>(*entry.program, top)
                  : nullptr;
  tuning.prefix = memo.get();
  return memo;
}

std::vector<FlowComparison>
CompareEngine::compareFlowsImpl(const Workload &workload,
                                const std::vector<flows::FlowSpec> &specs,
                                const flows::FlowTuning &tuning,
                                const EngineOptions &options) {
  return std::move(
      compareCells({&workload, 1}, specs, tuning, options).front());
}

std::vector<std::vector<FlowComparison>>
CompareEngine::compareMatrix(const std::vector<Workload> &workloads,
                             const flows::FlowTuning &tuning) {
  return compareCells(workloads, flows::allFlows(), tuning, options_);
}

std::vector<std::vector<FlowComparison>>
CompareEngine::compareCells(std::span<const Workload> workloads,
                            const std::vector<flows::FlowSpec> &specs,
                            const flows::FlowTuning &tuning,
                            const EngineOptions &options) {
  // Compile every workload up front: deterministic cache fill, and workers
  // never contend on the compile lock.  Each workload gets its own prefix
  // memo and golden run, as if it were a request of its own.
  std::vector<std::shared_ptr<FrontendCache::Entry>> entries;
  std::vector<std::unique_ptr<flows::PrefixMemo>> memos;
  std::vector<std::unique_ptr<GoldenMemo>> goldens;
  std::vector<flows::FlowTuning> tunings(workloads.size(), tuning);
  std::vector<std::vector<FlowComparison>> rows(workloads.size());
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    entries.push_back(cache_.get(workloads[w].source, workloads[w].top));
    memos.push_back(requestMemo(*entries[w], workloads[w].top, tunings[w]));
    goldens.push_back(std::make_unique<GoldenMemo>(
        workloads[w], entries[w]->program.get()));
    rows[w].resize(specs.size());
  }
  auto cell = [&](std::size_t w, std::size_t f) {
    rows[w][f] = runCell(specs[f], workloads[w], *entries[w], tunings[w],
                         options, *goldens[w]);
  };

  const std::size_t cells = workloads.size() * specs.size();
  const unsigned jobs = resolveJobs(tuning);
  if (jobs <= 1 || cells <= 1) {
    for (std::size_t w = 0; w < workloads.size(); ++w)
      for (std::size_t f = 0; f < specs.size(); ++f)
        cell(w, f);
    return rows;
  }
  // The persistent pool outlives this call; the group scopes the wait to
  // this batch so concurrent callers (service requests) never block on each
  // other's cells.
  TaskGroup group(
      sharedPool(static_cast<unsigned>(std::min<std::size_t>(jobs, cells))));
  for (std::size_t w = 0; w < workloads.size(); ++w)
    for (std::size_t f = 0; f < specs.size(); ++f)
      group.submit([&cell, w, f] { cell(w, f); });
  group.wait();
  return rows;
}

} // namespace c2h::core
