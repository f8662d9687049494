#include "vsim/cosim.h"

#include "rtl/verilog.h"
#include "vsim/compile.h"
#include "vsim/cvm.h"
#include "vsim/parser.h"

#include <atomic>

namespace c2h::vsim {

namespace {

std::string memNetName(const ir::Module &module, unsigned memId) {
  return "mem_" + rtl::verilogIdent(module.mems()[memId].name);
}

guard::FaultSite siteCompiledRun("vsim.compiled.run");
guard::FaultSite siteEventRun("vsim.event.run");
guard::FaultSite siteEmit("cosim.emit");
guard::FaultSite siteParse("cosim.parse");
guard::FaultSite siteElab("cosim.elab");

std::atomic<std::uint64_t> runCount{0};

// Reset + start/done handshake, templated over the engine (Simulation or
// CompiledSimulation expose the same poke/peek/tick surface).  `cycles`
// counts post-accept ticks, matching rtl::SimResult::cycles exactly.
template <class Sim>
CosimResult runHandshake(Sim &sim, const std::vector<BitVector> &args,
                         std::uint64_t maxCycles,
                         guard::ExecBudget *budget) {
  CosimResult result;
  auto failed = [&]() {
    if (sim.ok())
      return false;
    result.error = "vsim: " + sim.error();
    result.verdict = sim.verdict();
    return true;
  };
  // Resolve the handshake nets once; the cycle loop then runs without any
  // name lookups (by-id pokes and a word-level done probe).
  const int clkId = sim.findNetId("clk");
  const int doneId = sim.findNetId("done");
  if (clkId < 0) {
    result.error = "vsim: poke: unknown net 'clk'";
    return result;
  }
  sim.poke("rst", BitVector(1, 1));
  sim.poke("start", BitVector(1, 0));
  for (std::size_t i = 0; i < args.size(); ++i)
    sim.poke("arg" + std::to_string(i), args[i]);
  sim.tickId(clkId);
  sim.tickId(clkId);
  sim.poke("rst", BitVector(1, 0));
  sim.poke("start", BitVector(1, 1));
  sim.tickId(clkId); // accept edge: idle latches args, enters entry state
  sim.poke("start", BitVector(1, 0));
  if (failed())
    return result;
  std::uint64_t cycles = 0;
  for (;;) {
    if (cycles >= maxCycles) {
      result.error = "vsim: cycle budget exceeded (" +
                     std::to_string(maxCycles) + " cycles without done)";
      result.verdict.kind = guard::Kind::CycleLimit;
      result.verdict.stage = "vsim.cosim";
      result.verdict.cycles = cycles;
      return result;
    }
    if (budget && (cycles & 1023) == 0) {
      try {
        budget->chargeCycles(1024, "vsim.cosim");
        budget->checkDeadline("vsim.cosim");
      } catch (const guard::BudgetExceeded &e) {
        result.verdict = e.verdict;
        result.error = "vsim: " + e.verdict.str();
        return result;
      }
    }
    sim.tickId(clkId);
    ++cycles;
    if (sim.peekWord(doneId) & 1)
      break;
    if (failed())
      return result;
  }
  if (failed())
    return result;
  result.ok = true;
  result.cycles = cycles;
  result.returnValue = sim.peek("retval"); // 1-bit zero when no retval net
  return result;
}

} // namespace

// --------------------------------------------------------------------------
// ModelCache
// --------------------------------------------------------------------------

// One cached design's artifacts.  The entry mutex guards the lazy fields;
// the contained models themselves are immutable once published.
struct ModelCache::Entry {
  std::mutex m;
  bool elaborated = false;
  std::string error;
  std::shared_ptr<Model> model;
  CompileAttempt compile;
  std::shared_ptr<InitImage> eventImage;
};

support::CacheStats ModelCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.stats();
}

std::shared_ptr<ModelCache::Entry>
ModelCache::acquire(const support::LruKey &key) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (lru_.stats().capacity == 0)
    return nullptr;
  if (std::shared_ptr<Entry> *hit = lru_.find(key))
    return *hit;
  auto entry = std::make_shared<Entry>();
  lru_.insert(key, entry, 1);
  return entry;
}

// --------------------------------------------------------------------------
// Cosimulation
// --------------------------------------------------------------------------

void Cosimulation::cacheAdopt() {
  std::lock_guard<std::mutex> lock(cacheEntry_->m);
  const ModelCache::Entry &e = *cacheEntry_;
  if (!e.elaborated)
    return;
  model_ = e.model;
  error_ = e.error;
  compile_ = e.compile;
  eventImage_ = e.eventImage;
}

void Cosimulation::cachePublish() {
  // Never publish while a fault is armed: an injected-fault outcome must
  // stay confined to the request it hit.
  if (!cacheEntry_ || guard::anyFaultArmed())
    return;
  std::lock_guard<std::mutex> lock(cacheEntry_->m);
  ModelCache::Entry &e = *cacheEntry_;
  if (!e.elaborated) {
    e.elaborated = true;
    e.model = model_;
    e.error = error_;
  }
  if (compile_.tried && !e.compile.tried)
    e.compile = compile_;
  if (eventImage_ && !e.eventImage)
    e.eventImage = eventImage_;
}

Cosimulation::Cosimulation(const rtl::Design &design, ModelCache *cache)
    : Cosimulation(design, std::string(), cache) {}

Cosimulation::Cosimulation(const rtl::Design &design, std::string verilog,
                           ModelCache *cache)
    : design_(&design), verilog_(std::move(verilog)) {
  load(cache);
}

Cosimulation::Cosimulation(std::string verilogText, std::string topModule)
    : verilog_(std::move(verilogText)), topModule_(std::move(topModule)) {
  load(nullptr);
}

void Cosimulation::load(ModelCache *cache) {
  try {
    if (design_) {
      if (verilog_.empty()) {
        siteEmit.hit();
        verilog_ = rtl::emitVerilog(*design_);
      }
      topModule_ = "c2h_" + rtl::verilogIdent(design_->top);
    }
    if (cache && !guard::anyFaultArmed())
      cacheEntry_ = cache->acquire(verilog_ + '\x1f' + topModule_);
    if (cacheEntry_) {
      cacheAdopt();
      if (model_ || !error_.empty())
        return; // warm entry: parse/elaborate/compile all skipped
    }
    siteParse.hit();
    ParseDiagnostic diag;
    std::shared_ptr<SourceUnit> unit = parseVerilog(verilog_, diag);
    if (!unit) {
      error_ = "vsim parse: " + diag.str();
      cachePublish();
      return;
    }
    siteElab.hit();
    std::string elabError;
    model_ = elaborate(std::move(unit), topModule_, elabError);
    if (!model_)
      error_ = "vsim elaborate: " + elabError;
    cachePublish();
  } catch (const guard::InjectedFault &e) {
    verdict_ = e.verdict;
    error_ = "vsim: " + e.verdict.str();
  }
}

Cosimulation::~Cosimulation() = default;

void Cosimulation::seedGlobal(const std::string &name,
                              const std::vector<BitVector> &cells) {
  seeds_[name] = cells;
}

template <class Sim> void Cosimulation::seedInto(Sim &sim) {
  if (!design_)
    return;
  for (const auto &[name, cells] : seeds_) {
    const ir::GlobalSlot *slot = design_->module->findGlobal(name);
    if (!slot)
      continue;
    unsigned cellWidth = design_->module->mems()[slot->memId].width;
    std::string net = memNetName(*design_->module, slot->memId);
    for (std::uint64_t i = 0; i < cells.size() && i < slot->words; ++i)
      sim.pokeMemory(net, slot->base + i,
                     cells[i].resize(slot->width, false)
                         .resize(cellWidth, false));
  }
}

CosimResult Cosimulation::run(const std::vector<BitVector> &args,
                              const CosimOptions &options) {
  runCount.fetch_add(1, std::memory_order_relaxed);
  CosimResult result;
  if (!valid()) {
    result.error = error_;
    return result;
  }
  // Resize arguments like Simulator::run: to the declared parameter width.
  std::vector<BitVector> sized = args;
  if (design_)
    if (const ir::Function *top = design_->module->findFunction(design_->top))
      for (std::size_t i = 0;
           i < sized.size() && i < top->params().size(); ++i)
        sized[i] = sized[i].resize(top->params()[i].width, false);

  const bool compiledBefore = compile_.tried;
  const bool useCompiled =
      selectEngine(model_, options.engine, compile_, result.error) != nullptr;
  if (compile_.tried != compiledBefore)
    cachePublish();
  if (!result.error.empty()) {
    result.verdict = compile_.verdict;
    return result;
  }
  if (!useCompiled)
    return runEvent(sized, options);
  result = runCompiled(sized, options);
  result.engine = SimEngine::Compiled;
  if (!result.ok && !result.verdict.ok() &&
      options.engine != SimEngine::CompiledStrict) {
    // Guard event (budget trip / injected fault) on the compiled engine:
    // retry once on the event engine with whatever budget headroom remains.
    // Strict mode skips the retry — the failure surfaces as-is.
    std::string first = result.error;
    result = runEvent(sized, options);
    result.degradation = "compiled engine: " + first +
                         "; retried on event engine";
  }
  return result;
}

CosimResult Cosimulation::runCompiled(const std::vector<BitVector> &args,
                                      const CosimOptions &options) {
  sim_.reset();
  // The CompiledModel carries the post-`initial` image, so no settle is
  // needed before seeding; later runs restore it in place.
  if (csim_)
    csim_->reset();
  else
    csim_ = std::make_unique<CompiledSimulation>(compile_.compiled);
  // Behavioral models run their `initial` threads live; settle them before
  // seeding so seeded globals are not clobbered — the same order as
  // runEvent's construct-settle-seed sequence (and like there, the initial
  // execution is not charged to the budget).
  if (compile_.compiled->behavioral)
    csim_->settle();
  csim_->setBudget(options.budget);
  try {
    siteCompiledRun.hit();
  } catch (const guard::InjectedFault &e) {
    CosimResult result;
    result.verdict = e.verdict;
    result.error = "vsim: " + e.verdict.str();
    return result;
  }
  seedInto(*csim_);
  return runHandshake(*csim_, args, options.maxCycles, options.budget);
}

CosimResult Cosimulation::runEvent(const std::vector<BitVector> &args,
                                   const CosimOptions &options) {
  csim_.reset();
  if (eventImage_) {
    sim_ = std::make_unique<Simulation>(model_, *eventImage_);
  } else {
    sim_ = std::make_unique<Simulation>(model_);
    sim_->settle(); // initial blocks load the ROM/global images
    if (sim_->ok() && hasPlainInit(*model_)) {
      eventImage_ = std::make_shared<InitImage>(sim_->snapshot());
      cachePublish();
    }
  }
  sim_->setBudget(options.budget);
  try {
    siteEventRun.hit();
  } catch (const guard::InjectedFault &e) {
    CosimResult result;
    result.verdict = e.verdict;
    result.error = "vsim: " + e.verdict.str();
    return result;
  }
  seedInto(*sim_);
  return runHandshake(*sim_, args, options.maxCycles, options.budget);
}

std::vector<BitVector>
Cosimulation::readGlobal(const std::string &name) const {
  if ((!sim_ && !csim_) || !design_)
    return {};
  const ir::GlobalSlot *slot = design_->module->findGlobal(name);
  if (!slot)
    return {};
  std::string net = memNetName(*design_->module, slot->memId);
  std::vector<BitVector> cells = csim_ ? csim_->memoryContents(net)
                                      : sim_->memoryContents(net);
  std::vector<BitVector> out;
  for (std::uint64_t i = 0; i < slot->words && slot->base + i < cells.size();
       ++i)
    out.push_back(cells[slot->base + i].trunc(slot->width));
  return out;
}

std::uint64_t runs() { return runCount.load(std::memory_order_relaxed); }

CosimResult cosimulate(const rtl::Design &design,
                       const std::vector<BitVector> &args,
                       const CosimOptions &options) {
  Cosimulation cosim(design);
  return cosim.run(args, options);
}

CosimResult cosimulateSource(const std::string &verilogText,
                             const std::string &topModule,
                             const std::vector<BitVector> &args,
                             const CosimOptions &options) {
  Cosimulation cosim(verilogText, topModule);
  return cosim.run(args, options);
}

} // namespace c2h::vsim
