#include "flows/flow.h"

#include "analysis/lints.h"
#include "flows/prefix.h"
#include "frontend/parser.h"
#include "ir/lower.h"
#include "opt/ifconvert.h"
#include "opt/inline.h"
#include "opt/irpasses.h"
#include "opt/stackify.h"
#include "opt/unroll.h"

namespace c2h::flows {

namespace {

// Stage-boundary fault sites: each fires just before its pipeline stage
// runs, so an armed fault is observed exactly where a real stage failure
// would surface.
guard::FaultSite siteInline("flow.inline");
guard::FaultSite siteUnroll("flow.unroll");
guard::FaultSite siteLower("flow.lower");
guard::FaultSite siteSchedule("flow.schedule");

FlowSpec makeCones() {
  FlowSpec s;
  s.info = {"cones", "Cones", "AT&T Bell Labs", 1988,
            "Early, combinational only", "compiler (flatten everything)",
            "none: one combinational block", "combinational"};
  s.rejects = {
      {Feature::WhileLoops, "loops must have static bounds to flatten"},
      {Feature::Recursion, "recursion cannot be flattened"},
      {Feature::Pointers, "pointers are not supported"},
      {Feature::ParBlocks, "no process-level constructs"},
      {Feature::Channels, "no communication constructs"},
      {Feature::DelayStatements, "no notion of time in a combinational block"},
      {Feature::TimingConstraints, "no notion of time in a combinational block"},
      {Feature::GlobalState, "no state: inputs map combinationally to outputs"},
  };
  s.unrollAllLoops = true;
  s.requireCombinational = true;
  s.ifConvertBranches = true;
  s.sched.clockNs = 1e9; // one giant combinational step
  s.sched.asyncMemory = true;
  s.sched.resources = sched::ResourceSet::unlimited();
  s.sched.resources.memPortsPerMem = 0;
  s.tunable = false;
  return s;
}

FlowSpec makeHardwareC() {
  FlowSpec s;
  s.info = {"hardwarec", "HardwareC", "Stanford (Olympus)", 1990,
            "Behavioral synthesis-centric",
            "explicit processes + compiler scheduling",
            "scheduler with min/max cycle constraints", "synchronous FSMD"};
  s.rejects = {
      {Feature::Pointers, "HardwareC has no pointers"},
      {Feature::Recursion, "recursive hardware is not synthesizable here"},
  };
  s.sched.algorithm = sched::Algorithm::List;
  return s;
}

FlowSpec makeTransmogrifier() {
  FlowSpec s;
  s.info = {"transmogrifier", "Transmogrifier C", "U. Toronto", 1995,
            "Limited scope", "compiler (none beyond chaining)",
            "implicit rule: one cycle per loop iteration / call",
            "synchronous FSMD"};
  s.rejects = {
      {Feature::Pointers, "pointers are not supported"},
      {Feature::Recursion, "recursion is not supported"},
      {Feature::ParBlocks, "no parallel constructs"},
      {Feature::Channels, "no communication constructs"},
      {Feature::DelayStatements, "no explicit timing"},
      {Feature::TimingConstraints, "no timing constraints"},
      {Feature::DivideModulo, "no divider support"},
  };
  // Everything between loop boundaries is combinational; conditionals
  // inside an iteration become multiplexers (no extra cycles).
  s.ifConvertBranches = true;
  s.sched.clockNs = 1e9;
  s.sched.asyncMemory = true;
  s.sched.resources.memPortsPerMem = 0;
  s.tunable = false;
  return s;
}

FlowSpec makeSystemC() {
  FlowSpec s;
  s.info = {"systemc", "SystemC", "OSCI / Synopsys", 2000,
            "Verilog in C++", "clock-edge-triggered processes",
            "explicit wait() cycle boundaries", "synchronous FSMD"};
  s.rejects = {
      {Feature::Pointers, "the synthesizable subset bans pointers"},
      {Feature::Recursion, "the synthesizable subset bans recursion"},
  };
  s.sched.algorithm = sched::Algorithm::List;
  return s;
}

FlowSpec makeOcapi() {
  FlowSpec s;
  s.info = {"ocapi", "Ocapi", "IMEC", 1998,
            "Algorithmic structural descriptions",
            "designer-specified FSMs",
            "each designer-specified state gets a cycle",
            "synchronous FSMD"};
  s.rejects = {
      {Feature::Pointers, "structural descriptions have no pointers"},
      {Feature::Recursion, "structural descriptions have no recursion"},
      {Feature::Channels, "no rendezvous channels"},
  };
  // Designer states map one-to-one onto cycles: serialized writes over
  // the program as written.
  s.sched.serializeWrites = true;
  s.optimizeIr = false;
  return s;
}

FlowSpec makeC2Verilog() {
  FlowSpec s;
  s.info = {"c2verilog", "C2Verilog", "CompiLogic / C Level Design", 1998,
            "Comprehensive; company defunct", "compiler",
            "compiler-inserted cycles; constraints outside the language",
            "synchronous FSMD"};
  s.rejects = {
      {Feature::ParBlocks, "ANSI C has no parallel constructs"},
      {Feature::Channels, "ANSI C has no channels"},
      {Feature::DelayStatements, "ANSI C has no notion of time"},
      {Feature::TimingConstraints,
       "timing constraints live outside the language"},
  };
  s.forceUnifiedMemory = true;  // pointers are plain addresses
  s.stackifyRecursion = true;   // recursion becomes an explicit stack RAM
  s.sched.algorithm = sched::Algorithm::List;
  return s;
}

FlowSpec makeCyber() {
  FlowSpec s;
  s.info = {"cyber", "Cyber (BDL)", "NEC", 1999,
            "Restricted C with extensions", "explicit processes",
            "implicit or explicit timing", "synchronous FSMD"};
  s.rejects = {
      {Feature::Pointers, "BDL prohibits pointers"},
      {Feature::Recursion, "BDL prohibits recursive functions"},
  };
  s.sched.algorithm = sched::Algorithm::List;
  return s;
}

FlowSpec makeHandelC() {
  FlowSpec s;
  s.info = {"handelc", "Handel-C", "Oxford / Celoxica", 1996,
            "C with CSP", "explicit par + rendezvous channels",
            "every assignment takes exactly one cycle", "synchronous FSMD"};
  s.rejects = {
      {Feature::Pointers, "Handel-C has no pointers"},
      {Feature::Recursion, "Handel-C has no recursion"},
      {Feature::DivideModulo, "Handel-C has no division/modulo operators"},
      {Feature::TimingConstraints,
       "timing is fixed by the one-cycle-per-assignment rule"},
  };
  // One cycle per *source* assignment: the rule is defined on the program
  // as written, so the optimizer must not fuse or delete assignments.
  s.sched.serializeWrites = true;
  s.optimizeIr = false;
  return s;
}

FlowSpec makeSpecC() {
  FlowSpec s;
  s.info = {"specc", "SpecC", "UC Irvine", 2000,
            "Resolutely refinement-based",
            "explicit hierarchical par / pipe",
            "refinement: untimed specification to scheduled implementation",
            "synchronous FSMD"};
  s.rejects = {
      {Feature::Pointers, "the synthesizable subset bans pointers"},
      {Feature::Recursion, "the synthesizable subset bans recursion"},
  };
  s.sched.algorithm = sched::Algorithm::List;
  return s;
}

FlowSpec makeBachC() {
  FlowSpec s;
  s.info = {"bachc", "Bach C", "Sharp", 2001,
            "Untimed semantics", "explicit par + rendezvous",
            "untimed: the compiler schedules freely", "synchronous FSMD"};
  s.rejects = {
      {Feature::Pointers, "Bach C supports arrays but not pointers"},
      {Feature::Recursion, "recursion is not synthesizable"},
      {Feature::DelayStatements,
       "untimed semantics: no cycle-level statements"},
  };
  s.sched.algorithm = sched::Algorithm::List;
  return s;
}

FlowSpec makeCash() {
  FlowSpec s;
  s.info = {"cash", "CASH", "Carnegie Mellon", 2002,
            "Synthesizes asynchronous circuits", "compiler ILP extraction",
            "no clock: self-timed dataflow handshakes",
            "asynchronous dataflow"};
  s.rejects = {
      {Feature::ParBlocks, "ANSI C input: no parallel constructs"},
      {Feature::Channels, "ANSI C input: no channels"},
      {Feature::DelayStatements, "no clock to count"},
      {Feature::TimingConstraints, "no clock to constrain"},
      {Feature::Pointers, "this reproduction's dataflow backend is "
                          "pointer-free"},
      {Feature::Recursion, "dataflow circuits are not reentrant"},
  };
  s.asyncDataflow = true;
  s.tunable = false;
  return s;
}

} // namespace

const std::vector<FlowSpec> &allFlows() {
  static const std::vector<FlowSpec> flows = {
      makeCones(),     makeHardwareC(), makeTransmogrifier(),
      makeHandelC(),   makeOcapi(),     makeC2Verilog(),
      makeCyber(),     makeSystemC(),   makeSpecC(),
      makeBachC(),     makeCash(),
  };
  return flows;
}

const FlowSpec *findFlow(const std::string &id) {
  for (const auto &spec : allFlows())
    if (spec.info.id == id)
      return &spec;
  return nullptr;
}

std::vector<Feature> matrixFeatures() {
  return {Feature::Pointers,       Feature::Recursion,
          Feature::WhileLoops,     Feature::DivideModulo,
          Feature::GlobalState,    Feature::ParBlocks,
          Feature::Channels,       Feature::DelayStatements,
          Feature::TimingConstraints};
}

bool flowAccepts(const FlowSpec &spec, Feature feature) {
  return spec.rejects.count(feature) == 0;
}

FlowResult runFlow(const FlowSpec &spec, const std::string &source,
                   const std::string &top, const FlowTuning &tuning) {
  TypeContext types;
  DiagnosticEngine diags;
  auto program = frontend(source, types, diags);
  if (!program) {
    FlowResult result;
    result.error = "frontend: " + diags.str();
    return result;
  }
  return runFlowChecked(spec, *program, types, top, tuning);
}

FlowResult runFlowChecked(const FlowSpec &spec, ast::Program &program,
                          TypeContext &types, const std::string &top,
                          const FlowTuning &tuning) {
  FlowResult result;
  DiagnosticEngine diags;
  // Per-call meter: use the caller's (the CompareEngine shares one across a
  // cell's pipeline + verification), else instantiate from the tuning spec.
  guard::ExecBudget localMeter(tuning.budget);
  guard::ExecBudget *meter = tuning.meter ? tuning.meter : &localMeter;

  // 1. Expressiveness: intersect the program's features with the
  //    language's restrictions.
  FeatureSet features = analyzeFeatures(program);
  for (const auto &[feature, why] : spec.rejects) {
    if (!features.has(feature))
      continue;
    // Cite every offending site (capped), not just the first.
    const std::vector<SourceLoc> &sites = features.sites(feature);
    constexpr std::size_t kMaxSites = 4;
    std::string where;
    for (std::size_t i = 0; i < sites.size() && i < kMaxSites; ++i)
      where += (i ? ", " : "") + sites[i].str();
    if (sites.size() > kMaxSites)
      where += " and " + std::to_string(sites.size() - kMaxSites) + " more";
    result.rejections.push_back(std::string(spec.info.displayName) +
                                " rejects " + featureName(feature) + " (" +
                                why + "; used at " + where + ")");
  }
  if (!result.rejections.empty())
    return result;

  // 1b. Pre-flight synthesizability analysis: a provable par race or channel
  //     deadlock means the program is wrong in any language that accepts the
  //     constructs — reject with the precise sites instead of synthesizing a
  //     broken circuit.  A call without a request memo makes its own here,
  //     while `program` is still the unmutated AST the memo reads.
  std::optional<PrefixMemo> localPrefix;
  PrefixMemo &prefix =
      tuning.prefix ? *tuning.prefix : localPrefix.emplace(program, top);
  const analysis::Report &preflight = prefix.preflight();
  if (preflight.hasErrors()) {
    for (const auto &d : preflight.diagnostics())
      result.rejections.push_back(std::string(spec.info.displayName) +
                                  " rejects the program: " + d.oneLine());
    result.analysisFindings = preflight;
    return result;
  }
  result.accepted = true;

  // Everything past acceptance runs under the meter: a budget trip or an
  // injected fault inside any stage surfaces as a structured verdict on the
  // result, never as an exception escaping the flow boundary.
  try {

  // 2. Flatten the call graph (recursive functions survive and become
  //    FSM activations).
  siteInline.hit();
  meter->checkDeadline("flow.inline");
  opt::inlineFunctions(program, types, diags);
  if (diags.hasErrors()) {
    result.error = "inliner: " + diags.str();
    return result;
  }
  opt::removeUnusedFunctions(program, top);
  if (!program.findFunction(top)) {
    result.error = "no function named '" + top + "'";
    return result;
  }

  // 3. Loop unrolling: annotations always; everything when flattening.
  siteUnroll.hit();
  opt::UnrollOptions unrollOptions;
  unrollOptions.unrollAll = spec.unrollAllLoops;
  unrollOptions.budget = meter;
  opt::unrollLoops(program, diags, unrollOptions);
  if (diags.hasErrors()) {
    result.error = "unroller: " + diags.str();
    return result;
  }

  // 3b. Flows that must flatten every loop away: any loop still standing
  //     after inlining and full unrolling can never meet the combinational
  //     model — fail now, pointing at the loop, instead of at the opaque
  //     "control flow remains" check after lowering.
  if (spec.unrollAllLoops || spec.requireCombinational) {
    analysis::Report loops =
        analysis::lintUnboundedLoops(program, analysis::Severity::Error);
    if (loops.hasErrors()) {
      loops.sort();
      result.error = spec.info.displayName + ": " +
                     loops.diagnostics().front().oneLine();
      result.analysisFindings = std::move(loops);
      return result;
    }
  }

  // 4. Lower.
  siteLower.hit();
  meter->checkDeadline("flow.lower");
  ir::LowerOptions lowerOptions;
  lowerOptions.forceUnifiedMemory = spec.forceUnifiedMemory;
  auto module = ir::lowerToIR(program, diags, lowerOptions);
  if (!module) {
    result.error = "lowering: " + diags.str();
    return result;
  }

  // 4b. Value-range gate, on the *raw* lowered IR: a provably out-of-range
  //     access or division by zero is wrong in every backend, and it must be
  //     caught before optimization constant-folds the offending operation
  //     into its (defined but surprising) hardware result.
  PrefixMemo::Lowered &shared = prefix.lowered(*module);
  {
    const analysis::Report &ranges = shared.ranges(*module);
    if (ranges.hasErrors()) {
      result.accepted = false;
      analysis::Report errors;
      for (const auto &d : ranges.diagnostics())
        if (d.severity == analysis::Severity::Error) {
          result.rejections.push_back(std::string(spec.info.displayName) +
                                      " rejects the program: " + d.oneLine());
          errors.add(d);
        }
      errors.sort();
      result.analysisFindings = std::move(errors);
      return result;
    }
  }

  // 4c. Optimize.  Through the request memo, flows that lowered identical IR
  //     share one optimized module read-only; flows that rewrite it further
  //     take a private clone.
  if (spec.optimizeIr) {
    std::shared_ptr<const ir::Module> optimized =
        shared.optimized(std::move(module));
    if (spec.stackifyRecursion || spec.ifConvertBranches)
      module = ir::cloneModule(*optimized);
    else // FlowResult and the design only ever read the module.
      result.module = std::const_pointer_cast<ir::Module>(optimized);
  }
  if (module) {
    if (spec.stackifyRecursion && opt::stackifyRecursion(*module))
      opt::optimizeModule(*module);
    if (spec.ifConvertBranches) {
      opt::ifConvert(*module);
      opt::optimizeModule(*module);
    }
    result.module = std::shared_ptr<ir::Module>(std::move(module));
  }

  if (spec.requireCombinational) {
    for (const auto &fn : result.module->functions()) {
      if (fn->blocks().size() > 1) {
        result.error = spec.info.displayName +
                       ": program does not flatten to combinational logic "
                       "(control flow remains in '" +
                       fn->name() + "')";
        return result;
      }
    }
  }

  sched::TechLibrary lib;

  // 5a. Asynchronous backend.
  if (spec.asyncDataflow) {
    result.asyncInfo = async::buildCircuitInfo(
        *result.module, *result.module->findFunction(top), lib);
    result.ok = true;
    return result;
  }

  // 5b. Synchronous backend.
  siteSchedule.hit();
  meter->checkDeadline("flow.schedule");
  sched::SchedOptions options = spec.sched;
  if (spec.tunable) {
    if (tuning.clockNs)
      options.clockNs = *tuning.clockNs;
    if (tuning.resources)
      options.resources = *tuning.resources;
  }
  rtl::Design design = rtl::buildDesign(*result.module, top, lib, options);
  design.ownedModule = result.module;
  result.violations = design.violations;
  result.area = rtl::estimateArea(design, lib);
  result.timing = rtl::estimateTiming(design, lib);
  result.design = std::move(design);
  result.ok = true;
  return result;

  } catch (const guard::GuardEvent &e) {
    result.ok = false;
    result.verdict = e.verdict;
    result.error = e.verdict.str();
    return result;
  }
}

} // namespace c2h::flows
