// Chaos suite for the resource-guarded execution layer (support/guard).
//
// Every registered fault site is armed in turn against a representative
// workload run with three-model co-simulation enabled, asserting the
// engine-level robustness contract:
//  * the comparison finishes — an injected fault never escapes a stage
//    boundary as an exception,
//  * exactly the targeted cell reports the failure (structured
//    InjectedFault verdict), or, for the graceful-degradation sites, the
//    run self-heals and every row still passes,
//  * sibling rows are byte-identical to a fault-free baseline,
//  * rerunning the same armed configuration reproduces identical rows
//    (deterministic chaos), and
//  * a faulted run never poisons the shared front-end cache.
//
// Also home to the verify-budget regression (satellite of the same PR):
// the default interpreter budget is finite, and a shared meter turns a
// long-running golden-model run into a structured STEP_LIMIT verdict.
#include "core/engine.h"
#include "interp/interp.h"
#include "serve/service.h"
#include "support/guard.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace c2h {
namespace {

// Each armed run uses a fresh engine: frontend sites only fire on a cache
// miss, and a fresh cache also keeps runs order-independent.
std::vector<core::FlowComparison> runGcd(bool cosim) {
  core::EngineOptions opts;
  opts.cosim = cosim;
  core::CompareEngine engine(opts);
  flows::FlowTuning serial;
  serial.jobs = 1; // deterministic: first hit of an armed site is fixed
  return engine.compareFlows(core::findWorkload("gcd"), serial);
}

struct ArmedGuard {
  explicit ArmedGuard(const std::string &site) { guard::armFault(site); }
  ~ArmedGuard() { guard::disarmFaults(); }
};

void expectRowEqual(const core::FlowComparison &a,
                    const core::FlowComparison &b, const char *what) {
  EXPECT_EQ(a.flowId, b.flowId) << what;
  EXPECT_EQ(a.accepted, b.accepted) << what << " " << a.flowId;
  EXPECT_EQ(a.verified, b.verified) << what << " " << a.flowId;
  EXPECT_EQ(a.note, b.note) << what << " " << a.flowId;
  EXPECT_EQ(a.cycles, b.cycles) << what << " " << a.flowId;
  EXPECT_EQ(a.cosimRan, b.cosimRan) << what << " " << a.flowId;
  EXPECT_EQ(a.cosimOk, b.cosimOk) << what << " " << a.flowId;
  EXPECT_EQ(a.cosimCycles, b.cosimCycles) << what << " " << a.flowId;
  EXPECT_EQ(a.cosimNote, b.cosimNote) << what << " " << a.flowId;
  EXPECT_EQ(static_cast<int>(a.verdict.kind),
            static_cast<int>(b.verdict.kind))
      << what << " " << a.flowId;
  EXPECT_EQ(a.degradation, b.degradation) << what << " " << a.flowId;
}

std::size_t countInjected(const std::vector<core::FlowComparison> &rows) {
  std::size_t n = 0;
  for (const auto &r : rows)
    if (r.verdict.kind == guard::Kind::InjectedFault)
      ++n;
  return n;
}

TEST(Chaos, RegistryEnumeratesEveryStageBoundary) {
  auto sites = guard::allFaultSites();
  std::set<std::string> have(sites.begin(), sites.end());
  for (const char *required :
       {"frontend.parse", "frontend.sema", "engine.cell", "flow.inline",
        "flow.unroll", "flow.lower", "flow.schedule", "cosim.emit",
        "cosim.parse", "cosim.elab", "vsim.compile", "vsim.compiled.run",
        "vsim.event.run", "guard.alloc", "guard.io.read", "serve.parse",
        "serve.handle", "serve.respond"})
    EXPECT_TRUE(have.count(required)) << required;
  EXPECT_TRUE(std::is_sorted(sites.begin(), sites.end()));
}

TEST(Chaos, ArmingAnUnknownSiteIsAnError) {
  EXPECT_THROW(guard::armFault("bogus.site"), std::invalid_argument);
}

TEST(Chaos, EverySiteIsolatedDeterministicAndSelfHealing) {
  guard::disarmFaults();
  const auto baseline = runGcd(true);
  ASSERT_FALSE(baseline.empty());
  for (const auto &r : baseline)
    ASSERT_EQ(static_cast<int>(r.verdict.kind),
              static_cast<int>(guard::Kind::None))
        << r.flowId << ": " << r.note;

  // vsim.compile: injected compile failure degrades silently to the event
  // engine (exactly like an out-of-subset model).  vsim.compiled.run: the
  // degradation ladder retries the cell once on the event engine and
  // records it.  Both must leave every row passing.
  const std::set<std::string> degradeSilent = {"vsim.compile"};
  const std::set<std::string> degradeRetry = {"vsim.compiled.run"};
  // The whole workload shares one frontend compile, so a frontend fault
  // fails every row of this workload (and only this workload).
  const std::set<std::string> frontendSites = {"frontend.parse",
                                               "frontend.sema"};
  // Sites a healthy gcd run never reaches: no $readmem in the emitted RTL
  // and the compiled engine handles the model, so the event engine only
  // runs when some *other* site already fired.  The serve.* sites live in
  // the daemon layer, which this engine-level run never enters (they get
  // their own blast-radius tests below).
  const std::set<std::string> mayNotFire = {"guard.io.read", "vsim.event.run",
                                            "serve.parse", "serve.handle",
                                            "serve.respond"};
  // Every classified site is registered: a stale name above would silently
  // weaken the sweep below, which arms every registered site.
  const std::vector<std::string> sites = guard::allFaultSites();
  const std::set<std::string> registered(sites.begin(), sites.end());
  for (const auto *group :
       {&degradeSilent, &degradeRetry, &frontendSites, &mayNotFire})
    for (const std::string &site : *group)
      EXPECT_TRUE(registered.count(site)) << "unregistered site " << site;

  for (const std::string &site : sites) {
    SCOPED_TRACE("site=" + site);
    std::vector<core::FlowComparison> armed, rerun;
    {
      ArmedGuard arm(site);
      armed = runGcd(true);
    }
    {
      ArmedGuard arm(site);
      rerun = runGcd(true);
    }
    ASSERT_EQ(armed.size(), baseline.size());

    // Deterministic chaos: identical rows (including verdicts) on rerun.
    ASSERT_EQ(rerun.size(), armed.size());
    for (std::size_t i = 0; i < armed.size(); ++i)
      expectRowEqual(armed[i], rerun[i], "rerun");

    std::size_t injected = countInjected(armed);
    std::size_t degraded = 0;
    for (const auto &r : armed)
      if (!r.degradation.empty())
        ++degraded;

    if (degradeSilent.count(site) || degradeRetry.count(site)) {
      EXPECT_EQ(injected, 0u);
      EXPECT_EQ(degraded, degradeRetry.count(site) ? 1u : 0u);
      for (std::size_t i = 0; i < armed.size(); ++i) {
        EXPECT_EQ(armed[i].verified, baseline[i].verified) << armed[i].flowId;
        EXPECT_EQ(armed[i].cosimOk, baseline[i].cosimOk) << armed[i].flowId;
      }
    } else if (frontendSites.count(site)) {
      EXPECT_EQ(injected, armed.size());
      for (const auto &r : armed) {
        EXPECT_FALSE(r.accepted) << r.flowId;
        EXPECT_EQ(r.verdict.site, site) << r.flowId;
      }
    } else {
      // Stage sites: the first cell to reach the boundary takes the fault;
      // every sibling row must match the fault-free baseline exactly.
      if (mayNotFire.count(site))
        EXPECT_LE(injected, 1u);
      else
        EXPECT_EQ(injected, 1u) << "site never fired";
      for (std::size_t i = 0; i < armed.size(); ++i) {
        if (armed[i].verdict.kind == guard::Kind::InjectedFault) {
          EXPECT_EQ(armed[i].verdict.site, site);
          continue;
        }
        expectRowEqual(armed[i], baseline[i], "sibling");
      }
    }
  }
}

TEST(Chaos, FaultedRunDoesNotPoisonTheFrontendCache) {
  // Arm a frontend fault, run, then run the SAME engine disarmed: the
  // faulted compile must not have been cached, so the clean rerun
  // recompiles and every row matches a never-faulted engine.
  guard::disarmFaults();
  core::EngineOptions opts;
  core::CompareEngine engine(opts);
  flows::FlowTuning serial;
  serial.jobs = 1;
  const auto &w = core::findWorkload("gcd");
  {
    ArmedGuard arm("frontend.parse");
    auto rows = engine.compareFlows(w, serial);
    ASSERT_FALSE(rows.empty());
    EXPECT_EQ(countInjected(rows), rows.size());
  }
  auto clean = engine.compareFlows(w, serial);
  core::CompareEngine fresh(opts);
  auto expected = fresh.compareFlows(w, serial);
  ASSERT_EQ(clean.size(), expected.size());
  for (std::size_t i = 0; i < clean.size(); ++i)
    expectRowEqual(clean[i], expected[i], "post-fault");
}

// -------------------------------------------------------- serve chaos --
//
// The guard sites extend into the service layer; these tests prove the
// daemon-level blast-radius contract: a faulted or over-budget request
// fails alone, with a structured verdict, leaving concurrent siblings
// byte-identical and both caches unpoisoned.

std::string chaosStripVolatile(std::string response) {
  std::size_t start = response.find(",\"cache\":{");
  if (start == std::string::npos)
    return response;
  std::size_t end = response.find('}', start);
  response.erase(start, end - start + 1);
  return response;
}

TEST(ServeChaos, EveryServeSiteFailsExactlyOneRequest) {
  const std::string line =
      R"({"id":"x","op":"compare","workload":"gcd","timing":false,)"
      R"("no_cache":true})";
  for (const char *site : {"serve.parse", "serve.handle", "serve.respond"}) {
    SCOPED_TRACE(site);
    guard::disarmFaults();
    serve::CosimService service;
    std::string baseline = service.handleLine(line);
    ASSERT_NE(baseline.find("\"status\":\"ok\""), std::string::npos)
        << baseline;
    // Arm the site (counters reset): the next request takes the fault...
    guard::armFault(site);
    std::string faulted = service.handleLine(line);
    guard::disarmFaults();
    EXPECT_NE(faulted.find("\"status\":\"error\""), std::string::npos)
        << faulted;
    EXPECT_NE(faulted.find(std::string("\"site\":\"") + site + "\""),
              std::string::npos)
        << faulted;
    // ...and the next, disarmed request is byte-identical to the baseline:
    // the daemon survived and nothing leaked into the caches.
    std::string after = service.handleLine(line);
    EXPECT_EQ(chaosStripVolatile(after), chaosStripVolatile(baseline));
  }
  guard::disarmFaults();
}

TEST(ServeChaos, FaultedRequestDoesNotDisturbConcurrentSiblings) {
  guard::disarmFaults();
  // Baseline: the same request answered by a clean serial service.
  const std::string line =
      R"({"id":"s","op":"compare","workload":"gcd","timing":false,)"
      R"("no_cache":true})";
  std::string baseline;
  {
    serve::CosimService clean;
    baseline = chaosStripVolatile(clean.handleLine(line));
  }
  // Now a parallel service with serve.handle armed: exactly one of the
  // concurrent requests takes the fault, every other response matches the
  // clean baseline byte for byte.
  serve::ServiceOptions options;
  options.jobs = 4;
  serve::CosimService service(options);
  guard::armFault("serve.handle", 3);
  constexpr int kRequests = 6;
  std::vector<std::string> responses(kRequests);
  std::mutex mutex;
  for (int i = 0; i < kRequests; ++i)
    service.submitAsync(line, [&, i](std::string r) {
      std::lock_guard<std::mutex> lock(mutex);
      responses[i] = std::move(r);
    });
  service.drain();
  guard::disarmFaults();
  int faulted = 0;
  for (const auto &r : responses) {
    if (r.find("\"status\":\"error\"") != std::string::npos) {
      ++faulted;
      EXPECT_NE(r.find("\"kind\":\"INJECTED_FAULT\""), std::string::npos)
          << r;
      EXPECT_NE(r.find("\"site\":\"serve.handle\""), std::string::npos) << r;
      continue;
    }
    EXPECT_EQ(chaosStripVolatile(r), baseline);
  }
  EXPECT_EQ(faulted, 1);
  // The response cache was never poisoned: a warm repeat (caching enabled
  // now) still computes the clean answer.
  std::string repeat = service.handleLine(
      R"({"id":"r","op":"compare","workload":"gcd","timing":false})");
  EXPECT_NE(repeat.find("\"status\":\"ok\""), std::string::npos) << repeat;
}

TEST(ServeChaos, OverBudgetRequestLeavesSiblingsUntouched) {
  guard::disarmFaults();
  serve::ServiceOptions options;
  options.jobs = 4;
  serve::CosimService service(options);
  const std::string clean =
      R"({"id":"c","op":"compare","workload":"gcd","timing":false,)"
      R"("no_cache":true})";
  const std::string starved =
      R"({"id":"b","op":"compare","workload":"gcd","timing":false,)"
      R"("no_cache":true,"budget":{"cycles":5}})";
  std::string baseline = chaosStripVolatile(service.handleLine(clean));
  std::vector<std::string> responses(5);
  std::mutex mutex;
  for (int i = 0; i < 5; ++i)
    service.submitAsync(i == 2 ? starved : clean,
                        [&, i](std::string r) {
                          std::lock_guard<std::mutex> lock(mutex);
                          responses[i] = std::move(r);
                        });
  service.drain();
  for (int i = 0; i < 5; ++i) {
    if (i == 2) {
      EXPECT_NE(responses[i].find("\"status\":\"over_budget\""),
                std::string::npos)
          << responses[i];
      EXPECT_NE(responses[i].find("\"exit_code\":4"), std::string::npos);
    } else {
      EXPECT_EQ(chaosStripVolatile(responses[i]), baseline) << i;
    }
  }
}

// ------------------------------------------------------ verify budgets --

TEST(VerifyBudget, DefaultInterpreterBudgetIsFinite) {
  // core/verify's golden-model runs use InterpOptions' defaults: a
  // non-terminating workload must hit a real step budget, not hang.
  InterpOptions defaults;
  EXPECT_GT(defaults.maxSteps, 0u);
}

TEST(VerifyBudget, LongRunningGoldenModelTripsSharedMeter) {
  core::Workload w;
  w.name = "longloop";
  w.source = "int main(int n) {\n"
             "  int i; int acc;\n"
             "  acc = 0; i = 0;\n"
             "  while (i < 1000000) { acc = acc + i; i = i + 1; }\n"
             "  return acc;\n"
             "}\n";
  w.top = "main";
  w.args = {1};

  const flows::FlowSpec *flow = flows::findFlow("c2verilog");
  ASSERT_NE(flow, nullptr);
  flows::FlowResult r = flows::runFlow(*flow, w.source, w.top);
  ASSERT_TRUE(r.ok) << r.error;

  guard::BudgetSpec spec;
  spec.maxSteps = 10'000;
  guard::ExecBudget meter(spec);
  core::Verification v = core::verifyAgainstGoldenModel(w, r, &meter);
  EXPECT_FALSE(v.ok);
  EXPECT_EQ(static_cast<int>(v.verdict.kind),
            static_cast<int>(guard::Kind::StepLimit))
      << v.detail;
  EXPECT_NE(v.detail.find("step budget"), std::string::npos) << v.detail;
}

} // namespace
} // namespace c2h
