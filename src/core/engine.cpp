#include "core/engine.h"

#include "analysis/analyzer.h"
#include "flows/prefix.h"
#include "opt/astclone.h"
#include "support/threadpool.h"

#include <algorithm>

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

  // The golden run for a cell metered by `meter`.
  std::shared_ptr<const GoldenRun> get(guard::ExecBudget *meter) {
    const guard::BudgetSpec &spec = meter->spec();
    if (spec.maxSteps || spec.maxCycles || spec.maxAllocBytes)
      return run(meter);
    std::lock_guard<std::mutex> lock(mutex_);
    if (value_)
      return value_;
    std::shared_ptr<const GoldenRun> golden = run(meter);
    if (golden->verdict.ok())
      value_ = golden;
    return golden;
  }

private:
  std::shared_ptr<const GoldenRun> run(guard::ExecBudget *meter) const {
    return std::make_shared<const GoldenRun>(
        runGoldenModel(workload_, *program_, meter));
  }

  const Workload &workload_;
  const ast::Program *program_; // the front-end cache's AST; null on failure
  std::mutex mutex_;
  std::shared_ptr<const GoldenRun> value_;
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

Cell CompareEngine::runCell(const flows::FlowSpec &spec,
                            const Workload &workload,
                            FrontendCache::Entry &entry,
                            const flows::FlowTuning &tuning,
                            const EngineOptions &options, GoldenMemo *golden) {
  // One meter per cell, shared by the pipeline, golden-model verification,
  // and co-simulation — so a cell's budget is truly per-cell and a runaway
  // flow can never starve a sibling.
  guard::ExecBudget localMeter(tuning.budget);
  flows::FlowTuning cellTuning = tuning;
  cellTuning.meter = tuning.meter ? tuning.meter : &localMeter;
  Cell failed;
  try {
    Cell cell = synthesizeCell(spec, workload, entry, cellTuning);
    if (golden && cell.result && cell.result->ok)
      checkCell(cell, workload, entry, cellTuning.meter, options, *golden);
    return cell;
  } catch (const guard::GuardEvent &e) {
    failed.row.verdict = e.verdict;
    failed.row.note = e.verdict.str();
  } catch (const std::exception &e) {
    failed.row.note = std::string("internal error: ") + e.what();
  } catch (...) {
    failed.row.note = "internal error: non-standard exception";
  }
  failed.row.flowId = spec.info.id;
  return failed;
}

Cell CompareEngine::synthesizeCell(const flows::FlowSpec &spec,
                                   const Workload &workload,
                                   FrontendCache::Entry &entry,
                                   const flows::FlowTuning &tuning) {
  Cell cell;
  FlowComparison &row = cell.row;
  row.flowId = spec.info.id;
  siteCell.hit();
  if (!entry.ok()) {
    row.note = "frontend: " + entry.error;
    row.verdict = entry.verdict;
    return cell;
  }
  std::unique_ptr<ast::Program> program = entry.cloneAst();
  const flows::FlowResult &result = cell.result.emplace(
      runner_(spec, *program, entry.types, workload.top, tuning));
  row.analysis = entry.analysis;
  row.accepted = result.accepted;
  if (!result.accepted) {
    row.note =
        result.rejections.empty() ? "rejected" : result.rejections.front();
  } else if (!result.ok) {
    row.note = result.error;
    row.verdict = result.verdict;
  } else if (result.asyncInfo) {
    row.areaTotal = result.asyncInfo->area;
  } else {
    row.areaTotal = result.area.total();
    row.fmaxMHz = result.timing.fmaxMHz;
  }
  return cell;
}

void CompareEngine::checkCell(Cell &cell, const Workload &workload,
                              const FrontendCache::Entry &entry,
                              guard::ExecBudget *meter,
                              const EngineOptions &options,
                              GoldenMemo &goldenMemo) {
  const flows::FlowResult &result = *cell.result;
  FlowComparison &row = cell.row;
  cell.golden = goldenMemo.get(meter);
  Verification v = verifyAgainstGoldenModel(workload, result, *entry.program,
                                            *cell.golden, meter);
  row.verified = v.ok;
  if (!v.ok) {
    row.note = v.detail;
    row.verdict = v.verdict;
  }
  row.cycles = v.cycles;
  row.asyncNs = v.asyncNs;
  if (options.cosim && v.ok && result.design && !result.asyncInfo) {
    CosimVerification cv = cosimAgainstGoldenModel(
        workload, result, *entry.program, *cell.golden, v.cycles,
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
}

Cell CompareEngine::synthesize(const flows::FlowSpec &spec,
                               const Workload &workload,
                               const flows::FlowTuning &tuning) {
  std::shared_ptr<FrontendCache::Entry> entry =
      cache_.get(workload.source, workload.top);
  return runCell(spec, workload, *entry, tuning, options_, nullptr);
}

std::vector<FlowComparison>
CompareEngine::compareFlows(const Workload &workload,
                            const flows::FlowTuning &tuning) {
  return compareFlows(workload, tuning, options_);
}

std::vector<FlowComparison>
CompareEngine::compareFlows(const Workload &workload,
                            const std::vector<flows::FlowSpec> &specs,
                            const flows::FlowTuning &tuning) {
  return std::move(compareRows({&workload, 1}, specs, tuning, options_)[0]);
}

std::vector<FlowComparison>
CompareEngine::compareFlows(const Workload &workload,
                            const flows::FlowTuning &tuning,
                            const EngineOptions &callOptions) {
  return std::move(
      compareRows({&workload, 1}, flows::allFlows(), tuning, callOptions)[0]);
}

std::vector<std::vector<FlowComparison>>
CompareEngine::compareMatrix(const std::vector<Workload> &workloads,
                             const flows::FlowTuning &tuning) {
  return compareRows(workloads, flows::allFlows(), tuning, options_);
}

std::vector<std::vector<FlowComparison>>
CompareEngine::compareRows(std::span<const Workload> workloads,
                           std::span<const flows::FlowSpec> specs,
                           const flows::FlowTuning &tuning,
                           const EngineOptions &options) {
  std::vector<std::vector<FlowComparison>> rows(
      workloads.size(), std::vector<FlowComparison>(specs.size()));
  compareCells(workloads, specs, tuning, options,
               [&rows](std::size_t w, std::size_t f, Cell &&cell) {
                 rows[w][f] = std::move(cell.row);
               });
  return rows;
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

void CompareEngine::compareCells(std::span<const Workload> workloads,
                                 std::span<const flows::FlowSpec> specs,
                                 const flows::FlowTuning &tuning,
                                 const EngineOptions &options,
                                 const CellSink &sink) {
  // Compile every workload up front: deterministic cache fill, and workers
  // never contend on the compile lock.  Each workload gets its own prefix
  // memo and golden run, as if it were a request of its own.
  std::vector<std::shared_ptr<FrontendCache::Entry>> entries;
  std::vector<std::unique_ptr<flows::PrefixMemo>> memos;
  std::vector<std::unique_ptr<GoldenMemo>> goldens;
  std::vector<flows::FlowTuning> tunings(workloads.size(), tuning);
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    entries.push_back(cache_.get(workloads[w].source, workloads[w].top));
    memos.push_back(requestMemo(*entries[w], workloads[w].top, tunings[w]));
    goldens.push_back(std::make_unique<GoldenMemo>(
        workloads[w], entries[w]->program.get()));
  }
  auto cell = [&](std::size_t w, std::size_t f) {
    sink(w, f,
         runCell(specs[f], workloads[w], *entries[w], tunings[w], options,
                 goldens[w].get()));
  };

  const std::size_t cells = workloads.size() * specs.size();
  const unsigned jobs = resolveJobs(tuning);
  // An armed fault counts hits process-wide, so cells take them in cell
  // order only when they run one after another — the same rule under which
  // the caches bypass themselves.
  if (jobs <= 1 || cells <= 1 || guard::anyFaultArmed()) {
    for (std::size_t w = 0; w < workloads.size(); ++w)
      for (std::size_t f = 0; f < specs.size(); ++f)
        cell(w, f);
    return;
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
}

} // namespace c2h::core
