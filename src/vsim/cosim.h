// Co-simulation harness: run a synthesized rtl::Design through the whole
// textual round trip — emitVerilog -> vsim parse -> elaborate -> simulate —
// driving the start/done handshake exactly like the FSMD simulator's run()
// protocol, so the reported cycle count is directly comparable (and must be
// equal) to rtl::SimResult::cycles.
//
// Handshake protocol (one tick = clk 0->1->0):
//   reset high for 2 ticks -> args poked -> start=1, one tick (the accept
//   edge: the idle state latches arguments and enters the entry state)
//   -> start=0 -> tick until done; the number of post-accept ticks is the
//   cycle count.
#ifndef C2H_VSIM_COSIM_H
#define C2H_VSIM_COSIM_H

#include "rtl/fsmd.h"
#include "support/guard.h"
#include "support/lru.h"
#include "vsim/engine.h"
#include "vsim/sim.h"

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace c2h::vsim {

class CompiledSimulation;

struct CosimOptions {
  std::uint64_t maxCycles = 2'000'000;
  // Which backend executes the elaborated model.  Compiled is the default
  // and falls back to Event when compilation fails (CosimResult::engine
  // reports the actual choice); CompiledStrict turns any fallback — compile
  // failure or guard-triggered event-engine retry — into an error, which
  // is how bench_cosim and CI enforce that the compiled subset stays
  // equal to the event subset.
  SimEngine engine = SimEngine::Compiled;
  // Shared resource meter (non-owning; may be null).  Handshake cycles and
  // VM instructions are charged against it; the degradation ladder hands
  // the *same* budget to the event-engine retry, so a compiled-engine trip
  // retries only with whatever headroom remains.
  guard::ExecBudget *budget = nullptr;
};

struct CosimResult {
  bool ok = false;
  std::string error; // parse/elaborate/runtime failure or budget overrun
  BitVector returnValue{1};
  std::uint64_t cycles = 0;
  // Structured cause for guard events (budget trips, comb loops, injected
  // faults); kind None for ok runs and plain mismatches.
  guard::Verdict verdict;
  // Set when the compiled engine failed on a guard event and the run was
  // retried once on the event engine (records the first failure).
  std::string degradation;
  // Backend that produced this result: Compiled may fall back to Event
  // (Cosimulation::compileNote() then says why) or retry on it
  // (`degradation`).
  SimEngine engine = SimEngine::Event;
};

// Cross-request model cache (the serve layer's init-image reuse): keyed by
// the emitted Verilog text + top module, an entry keeps every immutable
// artifact a Cosimulation would otherwise rebuild per request — the
// elaborated Model, the lazily compiled CompiledModel (which carries the
// post-`initial` init image the bytecode VM restores from), the event
// engine's InitImage snapshot, and the recorded fallback note.  Entries
// hold no run state, so concurrent requests share one safely.  Recency and
// counters are a support::LruCache's, capped by entry count (each entry
// costs 1); capacity 0 disables it.  Lookups and stores are bypassed
// entirely while a guard fault is armed, so chaos runs can neither poison
// the cache nor be masked by it.
class ModelCache {
public:
  explicit ModelCache(std::size_t capacity = 16) : lru_(capacity) {}

  support::CacheStats stats() const;

private:
  friend class Cosimulation;
  struct Entry;
  // Returns the entry for `key`, creating (and registering) it on a miss;
  // null while the cache is disabled.
  std::shared_ptr<Entry> acquire(const support::LruKey &key);

  mutable std::mutex mutex_;
  support::LruCache<std::shared_ptr<Entry>> lru_;
};

// Emits and elaborates once; run() starts a fresh Simulation each time, so
// one Cosimulation can execute many argument sets (fuzzing, sweeps).
class Cosimulation {
public:
  explicit Cosimulation(const rtl::Design &design, ModelCache *cache = nullptr);
  // The same, over `verilog`, the design's already-emitted text (emitted
  // here when empty).
  Cosimulation(const rtl::Design &design, std::string verilog,
               ModelCache *cache = nullptr);
  // Arbitrary Verilog text whose `topModule` exposes the clk/rst/start/done
  // protocol.  Without a design, run() passes arguments through unresized
  // and seedGlobal/readGlobal have no globals to reach.
  Cosimulation(std::string verilogText, std::string topModule);
  ~Cosimulation();

  bool valid() const { return error_.empty(); }
  const std::string &error() const { return error_; }
  // Structured cause when construction failed on a guard event (an armed
  // cosim.emit/parse/elab fault site); kind None otherwise.
  const guard::Verdict &verdict() const { return verdict_; }
  const std::string &verilog() const { return verilog_; }
  // Why the model did not compile, once a run asked for it to.
  const std::string &compileNote() const { return compile_.note; }

  // Seed a source-level global (through the module's GlobalSlot map)
  // before the next run — the vsim analogue of Simulator::writeGlobal.
  void seedGlobal(const std::string &name,
                  const std::vector<BitVector> &cells);
  CosimResult run(const std::vector<BitVector> &args,
                  const CosimOptions &options = {});
  // Final contents of a checked global after run() (Simulator::readGlobal
  // analogue: `words` cells truncated to the slot width).
  std::vector<BitVector> readGlobal(const std::string &name) const;

private:
  // Emit (with a design), then parse and elaborate unless `cache` has it.
  void load(ModelCache *cache);
  template <class Sim> void seedInto(Sim &sim);
  void cacheAdopt();   // copy an elaborated entry's artifacts in
  void cachePublish(); // write lazily built artifacts back (idempotent)
  CosimResult runCompiled(const std::vector<BitVector> &args,
                          const CosimOptions &options);
  CosimResult runEvent(const std::vector<BitVector> &args,
                       const CosimOptions &options);

  const rtl::Design *design_ = nullptr; // null over Verilog text
  std::string verilog_, topModule_, error_;
  guard::Verdict verdict_;
  std::shared_ptr<Model> model_;
  std::unique_ptr<Simulation> sim_; // last event run's state, for readGlobal
  std::unique_ptr<CompiledSimulation> csim_; // last compiled run's state
  std::map<std::string, std::vector<BitVector>> seeds_;
  // Compile once per model (lazily, on the first Compiled-engine run).
  CompileAttempt compile_;
  // Post-`initial` snapshot for the event engine, so repeated runs don't
  // re-execute ROM init blocks (the crc8small outlier fix).  Shared so a
  // ModelCache entry can reuse it across requests.
  std::shared_ptr<InitImage> eventImage_;
  std::shared_ptr<ModelCache::Entry> cacheEntry_;
};

// Process-wide count of Cosimulation::run calls (a relaxed atomic), the
// vsim analogue of core::verifyFsmdRuns(): deterministic, so tests bound it.
std::uint64_t runs();

// One-shot convenience wrapper.
CosimResult cosimulate(const rtl::Design &design,
                       const std::vector<BitVector> &args,
                       const CosimOptions &options = {});

// One run of a Cosimulation over arbitrary Verilog text (the module must
// expose the clk/rst/start/done protocol), so it takes the same engine
// ladder, mid-run retry included.  This is how the intentional-mismatch
// tests corrupt an emitted design and prove the differential harness
// actually fails.
CosimResult cosimulateSource(const std::string &verilogText,
                             const std::string &topModule,
                             const std::vector<BitVector> &args,
                             const CosimOptions &options = {});

} // namespace c2h::vsim

#endif // C2H_VSIM_COSIM_H
