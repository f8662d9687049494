#include "core/engine.h"

#include "analysis/analyzer.h"
#include "flows/prefix.h"
#include "opt/astclone.h"
#include "support/threadpool.h"
#include "vsim/cosim.h"

#include <algorithm>
#include <atomic>
#include <unordered_map>

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

// Every witness is deterministic, so the cells of a workload in one call
// share their runs: the golden model runs once per workload, the FSMD
// simulator once per distinct rtl::fingerprint, and vsim once per distinct
// (emitted Verilog text, requested engine, global slot map).  Keys are full
// texts, so a hit is never a mere hash match.  The first cell to need a run
// computes it under its own meter while later cells wait, the way
// flows::PrefixMemo computes a shared prefix.  The memo keeps runs, not
// verdicts: each cell still compares the runs it gets, so a vsim run shared
// by two designs is checked against each one's own FSMD cycle count.
//
// Three rules keep every row independent of which cell ran first:
//  * only a run that no guard event stopped is kept — a budget trip or an
//    injected fault belongs to the cell that hit it, and the next cell runs
//    again;
//  * a cell whose meter limits steps, cycles or allocation runs its own
//    witnesses, so what it charges, and any verdict it trips, is its own;
//  * while a fault is armed the FSMD and vsim runs bypass the memo, as
//    vsim::ModelCache does, so `site:nth` names the same hit it always has.
//    The golden run stays shared, as it was before FSMD and vsim runs were.
class CompareEngine::WitnessMemo {
public:
  WitnessMemo(const Workload &workload, const ast::Program *program,
              const Emitter &emitter)
      : workload_(workload), program_(program), emitter_(emitter) {}

  // The golden run for a cell metered by `meter`.
  std::shared_ptr<const GoldenRun> golden(guard::ExecBudget *meter) {
    auto run = [&] {
      return std::make_shared<const GoldenRun>(
          runGoldenModel(workload_, *program_, meter));
    };
    return ownRun(meter) ? run() : share(golden_, run);
  }

  // `design`'s FSMD run.
  std::shared_ptr<const GoldenRun> fsmd(const rtl::Design &design,
                                        guard::ExecBudget *meter) {
    auto run = [&] {
      return std::make_shared<const GoldenRun>(
          runFsmdModel(workload_, design, *program_, meter));
    };
    if (ownRun(meter) || guard::anyFaultArmed())
      return run();
    return share(fsmd_.slot(fsmdKey(design)), run);
  }

  // `design`'s vsim run on `options`' engine and model cache.
  std::shared_ptr<const GoldenRun> vsim(const rtl::Design &design,
                                        const EngineOptions &options,
                                        guard::ExecBudget *meter) {
    auto run = [&](std::string verilog) {
      return std::make_shared<const GoldenRun>(
          runVsimModel(workload_, design, *program_, options.vsimEngine, meter,
                       options.modelCache, std::move(verilog)));
    };
    // Armed, the run emits the text itself, under its cosim.emit site.
    if (guard::anyFaultArmed())
      return run({});
    std::string verilog = emitter_(design);
    if (ownRun(meter))
      return run(std::move(verilog));
    return share(vsim_.slot(vsimKey(verilog, options.vsimEngine, design)),
                 [&] { return run(std::move(verilog)); });
  }

private:
  // One run, computed at most once while it completes cleanly.
  struct Slot {
    std::mutex mutex;
    std::shared_ptr<const GoldenRun> run;
  };
  // Slots by their full key text.
  class Table {
  public:
    Slot &slot(std::string key) {
      std::lock_guard<std::mutex> lock(mutex_);
      std::unique_ptr<Slot> &slot = slots_[std::move(key)];
      if (!slot)
        slot = std::make_unique<Slot>();
      return *slot;
    }

  private:
    std::mutex mutex_;
    std::unordered_map<std::string, std::unique_ptr<Slot>> slots_;
  };

  // rtl::fingerprint(design).text.  The optimizing flows of a request share
  // one module object, so its text is computed once per module the memo
  // pins; a design that does not own its module recomputes it.
  std::string fsmdKey(const rtl::Design &design) {
    const std::shared_ptr<ir::Module> &module = design.ownedModule;
    if (!module || module.get() != design.module)
      return rtl::fingerprint(design).text;
    std::string text;
    {
      std::lock_guard<std::mutex> lock(modulesMutex_);
      auto [it, fresh] = modules_.try_emplace(module.get());
      if (fresh)
        it->second = {module, ir::fingerprint(*module).text};
      text = it->second.second;
    }
    return rtl::fingerprint(design, std::move(text)).text;
  }

  // What a vsim run depends on besides the fixed top and args: the text it
  // parses, the engine it asks for, and the slots its globals are read from.
  static std::string vsimKey(const std::string &verilog,
                             vsim::SimEngine engine,
                             const rtl::Design &design) {
    std::string key = verilog;
    key += '\x1f';
    key += vsim::engineName(engine);
    const ir::Module &module = *design.module;
    for (const ir::GlobalSlot &g : module.globalMap())
      key += '\x1f' + g.name + ' ' + module.mems()[g.memId].name + ' ' +
             std::to_string(g.base) + ' ' + std::to_string(g.words) + ' ' +
             std::to_string(g.width);
    return key;
  }

  static bool ownRun(const guard::ExecBudget *meter) {
    return meter->spec().hasCountLimit();
  }

  template <class Run>
  static std::shared_ptr<const GoldenRun> share(Slot &slot, Run &&run) {
    std::lock_guard<std::mutex> lock(slot.mutex);
    if (slot.run)
      return slot.run;
    std::shared_ptr<const GoldenRun> fresh = run();
    if (fresh->verdict.ok() && fresh->degradation.empty())
      slot.run = fresh;
    return fresh;
  }

  const Workload &workload_;
  const ast::Program *program_; // the front-end cache's AST; null on failure
  const Emitter &emitter_;
  Slot golden_;
  Table fsmd_, vsim_;
  // Module fingerprint texts by module; holding the module keeps its
  // address from being reused by another while the memo lives.
  std::mutex modulesMutex_;
  std::unordered_map<const ir::Module *,
                     std::pair<std::shared_ptr<ir::Module>, std::string>>
      modules_;
};

std::unique_ptr<ast::Program> FrontendCache::Entry::cloneAst() const {
  return program ? opt::cloneProgram(*program) : nullptr;
}

std::shared_ptr<FrontendCache::Entry>
FrontendCache::get(const std::string &source, const std::string &top,
                   std::optional<flows::RangeGate> *ranges) {
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
      analysis::Report gate;
      entry->analysis = std::make_shared<const analysis::Report>(
          analysis::analyzeProgram(*entry->program, module.get(), opts,
                                   &gate));
      if (ranges && module)
        ranges->emplace(
            flows::RangeGate{ir::fingerprint(*module), std::move(gate)});
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
      }),
      emitter_(rtl::emitVerilog) {}

void CompareEngine::setRunnerForTesting(FlowRunner runner) {
  runner_ = std::move(runner);
}

void CompareEngine::setEmitterForTesting(Emitter emitter) {
  emitter_ = std::move(emitter);
}

unsigned CompareEngine::resolveJobs(const flows::FlowTuning &tuning) const {
  if (tuning.jobs && *tuning.jobs)
    return *tuning.jobs;
  if (options_.jobs)
    return options_.jobs;
  return ThreadPool::hardwareThreads();
}

ThreadPool &CompareEngine::sharedPool() {
  std::lock_guard<std::mutex> lock(poolMutex_);
  if (!pool_)
    pool_ = std::make_unique<ThreadPool>(options_.jobs);
  return *pool_;
}

Cell CompareEngine::runCell(const flows::FlowSpec &spec,
                            const Workload &workload,
                            FrontendCache::Entry &entry,
                            const flows::FlowTuning &tuning,
                            const EngineOptions &options,
                            WitnessMemo *witnesses) {
  // One meter per cell, shared by the pipeline, golden-model verification,
  // and co-simulation — so a cell's budget is truly per-cell and a runaway
  // flow can never starve a sibling.
  guard::ExecBudget localMeter(tuning.budget);
  flows::FlowTuning cellTuning = tuning;
  cellTuning.meter = tuning.meter ? tuning.meter : &localMeter;
  Cell failed;
  try {
    Cell cell = synthesizeCell(spec, workload, entry, cellTuning);
    if (witnesses && cell.result && cell.result->ok)
      checkCell(cell, workload, entry, cellTuning.meter, options, *witnesses);
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
                              WitnessMemo &witnesses) {
  const flows::FlowResult &result = *cell.result;
  FlowComparison &row = cell.row;
  cell.golden = witnesses.golden(meter);
  const GoldenRun &golden = *cell.golden;
  const rtl::Design *design =
      result.design && !result.asyncInfo ? &*result.design : nullptr;
  // A synchronous design meets its FSMD run only once the golden run
  // completed; everything else takes the flow-result path.
  Verification v =
      design && golden.ok
          ? verifyFsmdRun(workload, *entry.program, golden,
                          *witnesses.fsmd(*design, meter))
          : verifyAgainstGoldenModel(workload, result, *entry.program, golden,
                                     meter);
  row.verified = v.ok;
  if (!v.ok) {
    row.note = v.detail;
    row.verdict = v.verdict;
  }
  row.cycles = v.cycles;
  row.asyncNs = v.asyncNs;
  if (options.cosim && v.ok && design) {
    CosimVerification cv =
        verifyVsimRun(workload, *entry.program, golden, v.cycles,
                      *witnesses.vsim(*design, options, meter));
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
  std::optional<flows::RangeGate> ranges;
  std::shared_ptr<FrontendCache::Entry> entry =
      cache_.get(workload.source, workload.top, &ranges);
  flows::FlowTuning cellTuning = tuning;
  std::unique_ptr<flows::PrefixMemo> memo;
  if (!tuning.prefix)
    memo = requestMemo(*entry, workload.top, cellTuning, std::move(ranges));
  return runCell(spec, workload, *entry, cellTuning, options_, nullptr);
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
                           const std::string &top, flows::FlowTuning &tuning,
                           std::optional<flows::RangeGate> ranges) {
  auto memo = entry.ok() ? std::make_unique<flows::PrefixMemo>(
                               *entry.program, top, entry.analysis,
                               std::move(ranges))
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
  // memo and witness memo, as if it were a request of its own.
  std::vector<std::shared_ptr<FrontendCache::Entry>> entries;
  std::vector<std::unique_ptr<flows::PrefixMemo>> memos;
  std::vector<std::unique_ptr<WitnessMemo>> witnesses;
  std::vector<flows::FlowTuning> tunings(workloads.size(), tuning);
  for (std::size_t w = 0; w < workloads.size(); ++w) {
    std::optional<flows::RangeGate> ranges;
    entries.push_back(
        cache_.get(workloads[w].source, workloads[w].top, &ranges));
    memos.push_back(requestMemo(*entries[w], workloads[w].top, tunings[w],
                                std::move(ranges)));
    witnesses.push_back(std::make_unique<WitnessMemo>(
        workloads[w], entries[w]->program.get(), emitter_));
  }
  auto cell = [&](std::size_t w, std::size_t f) {
    sink(w, f,
         runCell(specs[f], workloads[w], *entries[w], tunings[w], options,
                 witnesses[w].get()));
  };

  const std::size_t cells = workloads.size() * specs.size();
  const unsigned jobs = resolveJobs(tuning);
  // An armed fault counts hits process-wide, and a count limit on a meter
  // every cell charges trips at whichever charge crosses it, so cells take
  // hits and charges in cell order only when they run one after another —
  // the same rule under which the caches bypass themselves.
  const bool sharedCountLimit =
      tuning.meter && tuning.meter->spec().hasCountLimit();
  if (jobs <= 1 || cells <= 1 || sharedCountLimit || guard::anyFaultArmed()) {
    for (std::size_t w = 0; w < workloads.size(); ++w)
      for (std::size_t f = 0; f < specs.size(); ++f)
        cell(w, f);
    return;
  }
  // The persistent pool outlives this call; the group scopes the wait to
  // this batch so concurrent callers (service requests) never block on each
  // other's cells.  `jobs` caps this call alone: that many runners take
  // cell indices from one counter, whatever the pool's width.
  std::atomic<std::size_t> next{0};
  auto runner = [&] {
    for (std::size_t i; (i = next.fetch_add(1)) < cells;)
      cell(i / specs.size(), i % specs.size());
  };
  TaskGroup group(sharedPool());
  for (std::size_t r = std::min<std::size_t>(jobs, cells); r > 0; --r)
    group.submit(runner);
  group.wait();
}

} // namespace c2h::core
