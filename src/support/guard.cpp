#include "support/guard.h"

#include <algorithm>
#include <fstream>
#include <mutex>
#include <sstream>

namespace c2h::guard {

const char *kindName(Kind k) {
  switch (k) {
  case Kind::None: return "OK";
  case Kind::Timeout: return "TIMEOUT";
  case Kind::StepLimit: return "STEP_LIMIT";
  case Kind::CycleLimit: return "CYCLE_LIMIT";
  case Kind::AllocLimit: return "ALLOC_LIMIT";
  case Kind::Cancelled: return "CANCELLED";
  case Kind::InjectedFault: return "INJECTED_FAULT";
  case Kind::CombLoop: return "COMB_LOOP";
  case Kind::Deadlock: return "DEADLOCK";
  case Kind::IoError: return "IO_ERROR";
  }
  return "?";
}

std::string Verdict::str() const {
  std::ostringstream os;
  os << kindName(kind);
  if (!stage.empty())
    os << " at " << stage;
  if (!site.empty())
    os << " [" << site << "]";
  os << " (steps=" << steps << ", cycles=" << cycles;
  if (allocBytes != 0)
    os << ", allocBytes=" << allocBytes;
  os << ", wallMs=" << wallMs << ")";
  return os.str();
}

// --------------------------------------------------------------------------
// ExecBudget
// --------------------------------------------------------------------------

ExecBudget::ExecBudget(BudgetSpec spec)
    : spec_(spec), start_(std::chrono::steady_clock::now()) {}

std::uint64_t ExecBudget::elapsedMs() const {
  auto d = std::chrono::steady_clock::now() - start_;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(d).count());
}

Verdict ExecBudget::verdict(Kind kind, const char *stage, std::string site) const {
  Verdict v;
  v.kind = kind;
  v.stage = stage;
  v.site = std::move(site);
  v.steps = stepsUsed();
  v.cycles = cyclesUsed();
  v.allocBytes = allocUsed();
  v.wallMs = elapsedMs();
  return v;
}

void ExecBudget::trip(Kind kind, const char *stage) const {
  throw BudgetExceeded(verdict(kind, stage));
}

void ExecBudget::chargeSteps(std::uint64_t n, const char *stage) {
  std::uint64_t total = steps_.fetch_add(n, std::memory_order_relaxed) + n;
  if (spec_.maxSteps != 0 && total > spec_.maxSteps)
    trip(Kind::StepLimit, stage);
}

void ExecBudget::chargeCycles(std::uint64_t n, const char *stage) {
  std::uint64_t total = cycles_.fetch_add(n, std::memory_order_relaxed) + n;
  if (spec_.maxCycles != 0 && total > spec_.maxCycles)
    trip(Kind::CycleLimit, stage);
}

void ExecBudget::chargeAlloc(std::uint64_t bytes, const char *stage) {
  std::uint64_t total = alloc_.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  if (spec_.maxAllocBytes != 0 && total > spec_.maxAllocBytes)
    trip(Kind::AllocLimit, stage);
}

void ExecBudget::checkDeadline(const char *stage) {
  if (cancelled_.load(std::memory_order_relaxed))
    trip(Kind::Cancelled, stage);
  if (spec_.wallMs != 0 && elapsedMs() > spec_.wallMs)
    trip(Kind::Timeout, stage);
}

std::uint64_t ExecBudget::remainingCycles() const {
  if (spec_.maxCycles == 0)
    return UINT64_MAX;
  std::uint64_t used = cyclesUsed();
  return used >= spec_.maxCycles ? 0 : spec_.maxCycles - used;
}

// --------------------------------------------------------------------------
// Fault-injection registry
//
// Sites are FaultSite objects with static storage duration spread across
// translation units; they link themselves into a lock-protected intrusive
// list at construction.  Arming state lives here: `armedSite`/`armedNth`
// plus a global counter whose nonzero value flips every site's hit() onto
// the slow path.  With nothing armed the only cost per hit is the relaxed
// load in the header.
// --------------------------------------------------------------------------

namespace {
std::mutex &registryMutex() {
  static std::mutex m;
  return m;
}
FaultSite *&registryHead() {
  static FaultSite *head = nullptr;
  return head;
}
FaultSite *armedSite = nullptr; // guarded by registryMutex
std::atomic<std::uint64_t> armedNth{1};
} // namespace

std::atomic<int> &FaultSite::anyArmed() {
  static std::atomic<int> armed{0};
  return armed;
}

FaultSite::FaultSite(const char *name) : name_(name) {
  std::lock_guard<std::mutex> lock(registryMutex());
  next_ = registryHead();
  registryHead() = this;
}

void FaultSite::hitSlow() {
  {
    std::lock_guard<std::mutex> lock(registryMutex());
    if (armedSite != this)
      return;
  }
  std::uint64_t n = hits_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (n != armedNth.load(std::memory_order_relaxed))
    return;
  Verdict v;
  v.kind = Kind::InjectedFault;
  v.stage = name_;
  v.site = name_;
  throw InjectedFault(std::move(v));
}

void armFault(const std::string &site, std::uint64_t nth) {
  std::lock_guard<std::mutex> lock(registryMutex());
  FaultSite *found = nullptr;
  for (FaultSite *s = registryHead(); s; s = s->next_) {
    s->hits_.store(0, std::memory_order_relaxed);
    if (site == s->name_)
      found = s;
  }
  if (!found)
    throw std::invalid_argument("unknown fault site '" + site +
                                "' (see --list-fault-sites)");
  armedSite = found;
  armedNth.store(nth == 0 ? 1 : nth, std::memory_order_relaxed);
  FaultSite::anyArmed().store(1, std::memory_order_relaxed);
}

void disarmFaults() {
  std::lock_guard<std::mutex> lock(registryMutex());
  armedSite = nullptr;
  for (FaultSite *s = registryHead(); s; s = s->next_)
    s->hits_.store(0, std::memory_order_relaxed);
  FaultSite::anyArmed().store(0, std::memory_order_relaxed);
}

std::vector<std::string> allFaultSites() {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(registryMutex());
    for (FaultSite *s = registryHead(); s; s = s->next_)
      names.emplace_back(s->name_);
  }
  std::sort(names.begin(), names.end());
  names.erase(std::unique(names.begin(), names.end()), names.end());
  return names;
}

bool anyFaultArmed() {
  return FaultSite::anyArmed().load(std::memory_order_relaxed) != 0;
}

// --------------------------------------------------------------------------
// Shims
// --------------------------------------------------------------------------

namespace {
FaultSite siteAlloc("guard.alloc");
FaultSite siteIoRead("guard.io.read");
} // namespace

void noteAlloc(ExecBudget *budget, std::uint64_t bytes, const char *stage) {
  siteAlloc.hit();
  if (budget)
    budget->chargeAlloc(bytes, stage);
}

bool readFile(const std::string &path, std::string &out, Verdict &verdict,
              const char *stage) {
  try {
    siteIoRead.hit();
  } catch (const InjectedFault &f) {
    verdict = f.verdict;
    verdict.stage = stage;
    verdict.site = path + " (injected)";
    return false;
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    verdict.kind = Kind::IoError;
    verdict.stage = stage;
    verdict.site = path;
    return false;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) {
    verdict.kind = Kind::IoError;
    verdict.stage = stage;
    verdict.site = path;
    return false;
  }
  out = buf.str();
  return true;
}

} // namespace c2h::guard
