// Resource-guarded execution: budgets, structured failure verdicts, and a
// deterministic fault-injection registry shared by every long-running stage.
//
// The engine runs hostile workloads — unbounded recursion, runaway unrolling,
// combinational loops — so every stage that can spin (frontend, unroller,
// schedulers, interpreter, rtl::Simulator, both vsim engines) charges its
// work against a shared ExecBudget.  Budget exhaustion raises BudgetExceeded
// *inside* the stage; the stage boundary catches it and converts it into a
// structured Verdict on its result object.  Nothing guard-related ever
// propagates past a stage boundary.
//
// Fault injection: FaultSite marks each stage boundary (plus the allocation
// and file-I/O shims).  Unarmed, a site costs one relaxed atomic load of a
// process-global counter — zero measurable overhead on the compiled-engine
// hot path.  Armed (armFault("site", nth)), the nth hit of that site throws
// InjectedFault, which stage boundaries convert to a Verdict exactly like a
// budget trip.  Sites self-register at namespace scope so --list-fault-sites
// can enumerate them without executing anything.
#ifndef C2H_SUPPORT_GUARD_H
#define C2H_SUPPORT_GUARD_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace c2h::guard {

// ---------------------------------------------------------------------------
// Verdict: the single structured failure record for resource/fault events.
// ---------------------------------------------------------------------------

enum class Kind : std::uint8_t {
  None = 0,      // no guard event; the stage completed (or failed on its own)
  Timeout,       // wall-clock deadline exceeded
  StepLimit,     // interpreter/scheduler step budget exhausted
  CycleLimit,    // simulator cycle budget exhausted
  AllocLimit,    // allocation high-water mark exceeded
  Cancelled,     // cooperative cancellation token fired
  InjectedFault, // an armed FaultSite fired
  CombLoop,      // vsim combinational loop (loop nets in `site`)
  Deadlock,      // no process advanced within the stall limit
  IoError,       // guarded file I/O failed ($readmemh etc.)
};

const char *kindName(Kind k);

struct Verdict {
  Kind kind = Kind::None;
  std::string stage; // e.g. "verify.interp", "cosim.run", "flow.unroll"
  std::string site;  // fault-site name, loop nets, or file path — kind-specific
  std::uint64_t steps = 0;
  std::uint64_t cycles = 0;
  std::uint64_t allocBytes = 0;
  std::uint64_t wallMs = 0;

  bool ok() const { return kind == Kind::None; }
  // True for the Kinds that map to c2hc exit code 4 (resource-limit).
  bool isResourceLimit() const {
    return kind == Kind::Timeout || kind == Kind::StepLimit ||
           kind == Kind::CycleLimit || kind == Kind::AllocLimit ||
           kind == Kind::CombLoop || kind == Kind::Deadlock;
  }
  // One-line human rendering: "TIMEOUT at verify.interp (steps=..., wallMs=...)".
  std::string str() const;
};

// ---------------------------------------------------------------------------
// Exceptions thrown *inside* stages, caught at stage boundaries.
// ---------------------------------------------------------------------------

// A guard event: either exception below, for boundaries that treat both
// alike.
class GuardEvent : public std::runtime_error {
public:
  explicit GuardEvent(Verdict v)
      : std::runtime_error(v.str()), verdict(std::move(v)) {}
  Verdict verdict;
};

class BudgetExceeded : public GuardEvent {
public:
  using GuardEvent::GuardEvent;
};

class InjectedFault : public GuardEvent {
public:
  using GuardEvent::GuardEvent;
};

// ---------------------------------------------------------------------------
// ExecBudget: shared, thread-safe resource meter for one engine cell.
// ---------------------------------------------------------------------------

struct BudgetSpec {
  std::uint64_t maxSteps = 0;      // 0 = unlimited
  std::uint64_t maxCycles = 0;     // 0 = unlimited
  std::uint64_t maxAllocBytes = 0; // 0 = unlimited
  std::uint64_t wallMs = 0;        // 0 = no deadline
  bool unlimited() const {
    return maxSteps == 0 && maxCycles == 0 && maxAllocBytes == 0 && wallMs == 0;
  }
  // A step, cycle or alloc limit: which charge trips it depends on the
  // order in which the charges come, unlike a wall deadline.
  bool hasCountLimit() const {
    return maxSteps || maxCycles || maxAllocBytes;
  }
};

class ExecBudget {
public:
  explicit ExecBudget(BudgetSpec spec = {});

  // Charge methods throw BudgetExceeded when the corresponding limit trips.
  // `stage` names the caller for the verdict.  Charging is monotonic and
  // shared: the interp steps and a later vsim retry draw from the same pool.
  void chargeSteps(std::uint64_t n, const char *stage);
  void chargeCycles(std::uint64_t n, const char *stage);
  void chargeAlloc(std::uint64_t bytes, const char *stage);
  // Deadline + cancellation check; cheap enough for per-1k-iteration polling.
  void checkDeadline(const char *stage);

  // Cooperative cancellation: the next checkDeadline() in any thread throws.
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const { return cancelled_.load(std::memory_order_relaxed); }

  std::uint64_t stepsUsed() const { return steps_.load(std::memory_order_relaxed); }
  std::uint64_t cyclesUsed() const { return cycles_.load(std::memory_order_relaxed); }
  std::uint64_t allocUsed() const { return alloc_.load(std::memory_order_relaxed); }
  std::uint64_t elapsedMs() const;
  const BudgetSpec &spec() const { return spec_; }

  // Remaining headroom (UINT64_MAX when unlimited) — used by the cosim
  // degradation ladder to hand a compiled-engine trip's leftovers to the
  // event-engine retry.
  std::uint64_t remainingCycles() const;

  // Snapshot the consumed counters into a verdict of the given kind.
  Verdict verdict(Kind kind, const char *stage, std::string site = {}) const;

private:
  [[noreturn]] void trip(Kind kind, const char *stage) const;

  BudgetSpec spec_;
  std::chrono::steady_clock::time_point start_;
  std::atomic<std::uint64_t> steps_{0};
  std::atomic<std::uint64_t> cycles_{0};
  std::atomic<std::uint64_t> alloc_{0};
  std::atomic<bool> cancelled_{false};
};

// ---------------------------------------------------------------------------
// Fault-injection registry.
// ---------------------------------------------------------------------------

class FaultSite {
public:
  // `name` must be a string literal ("stage.step" convention, see DESIGN.md);
  // registration happens at namespace scope, so sites are enumerable before
  // any code path executes them.
  explicit FaultSite(const char *name);

  // Hot-path check.  Unarmed: one relaxed load of the global armed counter.
  void hit() {
    if (anyArmed().load(std::memory_order_relaxed) != 0)
      hitSlow();
  }

  const char *name() const { return name_; }

private:
  void hitSlow();
  static std::atomic<int> &anyArmed();

  const char *name_;
  std::atomic<std::uint64_t> hits_{0};
  FaultSite *next_ = nullptr; // intrusive registry list

  friend void armFault(const std::string &, std::uint64_t);
  friend void disarmFaults();
  friend std::vector<std::string> allFaultSites();
  friend bool anyFaultArmed();
};

// Arm `site` to throw InjectedFault on its `nth` hit (1-based; default first).
// Resets every site's hit counter so reruns are deterministic.  Throws
// std::invalid_argument when no such site is registered.
void armFault(const std::string &site, std::uint64_t nth = 1);
// Disarm everything and reset hit counters.
void disarmFaults();
// Sorted names of every registered site.
std::vector<std::string> allFaultSites();
// True while any site is armed.  Caches consult this to bypass themselves
// under fault injection, so an armed site stays reachable (a cache hit
// would otherwise skip the guarded code path and the fault would never
// fire, breaking chaos-test determinism).
bool anyFaultArmed();

// ---------------------------------------------------------------------------
// Shims.
// ---------------------------------------------------------------------------

// Allocation shim: charge a large transient allocation against `budget`
// (nullptr budget = unmetered) and pass the guard.alloc fault site.
void noteAlloc(ExecBudget *budget, std::uint64_t bytes, const char *stage);

// File-read shim for $readmemh/$readmemb and friends: reads the whole file,
// returning false with a structured IoError verdict on failure (missing
// file, unreadable, or injected guard.io.read fault).
bool readFile(const std::string &path, std::string &out, Verdict &verdict,
              const char *stage);

} // namespace c2h::guard

#endif // C2H_SUPPORT_GUARD_H
