#include "replica.h"

#include "analysis/analyzer.h"
#include "analysis/lints.h"
#include "analysis/range.h"
#include "core/c2h.h"
#include "opt/astclone.h"
#include "opt/ifconvert.h"
#include "opt/stackify.h"
#include "support/text.h"
#include "vsim/compile.h"
#include "vsim/cosim.h"
#include "vsim/elab.h"
#include "vsim/parser.h"

#include <cstdio>
#include <memory>

namespace perfbench {

using namespace c2h;

std::int32_t Tracer::open(const char *name, std::uint32_t request,
                          std::int32_t parent) {
  Span span{name, request, parent};
  span.startUs = std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - origin_)
                     .count();
  spans_.push_back(span);
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::close(std::int32_t id) {
  Span &span = spans_[static_cast<std::size_t>(id)];
  span.durUs = std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - origin_)
                   .count() -
               span.startUs;
}

bool Tracer::write(const std::string &path) const {
  std::FILE *f = std::fopen(path.c_str(), "w");
  if (!f)
    return false;
  std::fputs("{\"traceEvents\":[", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span &s = spans_[i];
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"request\":%u,"
                 "\"parent\":%d}}",
                 i ? "," : "", s.name, s.startUs, s.durUs, s.request,
                 s.parent);
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

namespace {

std::uint64_t countInstrs(const ir::Module &module) {
  std::uint64_t n = 0;
  for (const auto &fn : module.functions())
    for (const auto &block : fn->blocks())
      n += block->instrs().size();
  return n;
}

struct ReplicaRow {
  bool accepted = false;
  bool ok = false;
  std::uint64_t cycles = 0;
  double area = 0.0;
};

// flows::runFlowChecked, stage by stage, with a span around each call.
flows::FlowResult runFlowTraced(const flows::FlowSpec &spec,
                                ast::Program &program, TypeContext &types,
                                const std::string &top,
                                guard::ExecBudget &meter, Tracer &tracer,
                                std::uint32_t request, std::int32_t parent,
                                ReplicaCounts &counts) {
  flows::FlowResult result;
  DiagnosticEngine diags;
  {
    ScopedSpan s(tracer, "flows.restrict", request, parent);
    FeatureSet features = analyzeFeatures(program);
    for (const auto &entry : spec.rejects)
      if (features.has(entry.first))
        result.rejections.push_back(featureName(entry.first));
  }
  if (!result.rejections.empty())
    return result;
  {
    ScopedSpan s(tracer, "analysis.preflight", request, parent);
    if (analysis::preflightFlow(program, top, false).hasErrors()) {
      result.rejections.push_back("preflight");
      return result;
    }
  }
  result.accepted = true;
  {
    ScopedSpan s(tracer, "opt.inline", request, parent);
    meter.checkDeadline("flow.inline");
    opt::inlineFunctions(program, types, diags);
    if (diags.hasErrors()) {
      result.error = "inliner";
      return result;
    }
    opt::removeUnusedFunctions(program, top);
    if (!program.findFunction(top)) {
      result.error = "no top";
      return result;
    }
  }
  {
    ScopedSpan s(tracer, "opt.unroll", request, parent);
    opt::UnrollOptions unrollOptions;
    unrollOptions.unrollAll = spec.unrollAllLoops;
    unrollOptions.budget = &meter;
    opt::unrollLoops(program, diags, unrollOptions);
    if (diags.hasErrors()) {
      result.error = "unroller";
      return result;
    }
  }
  if (spec.unrollAllLoops || spec.requireCombinational) {
    ScopedSpan s(tracer, "analysis.preflight", request, parent);
    if (analysis::lintUnboundedLoops(program, analysis::Severity::Error)
            .hasErrors()) {
      result.error = "unbounded loop";
      return result;
    }
  }
  std::unique_ptr<ir::Module> module;
  {
    ScopedSpan s(tracer, "ir.lower", request, parent);
    meter.checkDeadline("flow.lower");
    ir::LowerOptions lowerOptions;
    lowerOptions.forceUnifiedMemory = spec.forceUnifiedMemory;
    module = ir::lowerToIR(program, diags, lowerOptions);
    if (!module) {
      result.error = "lowering";
      return result;
    }
  }
  counts.instrsLowered += countInstrs(*module);
  {
    ScopedSpan s(tracer, "analysis.ranges_check", request, parent);
    if (analysis::checkRanges(*module).hasErrors()) {
      result.accepted = false;
      result.rejections.push_back("ranges");
      return result;
    }
  }
  auto optimize = [&] {
    ScopedSpan s(tracer, "opt.optimize", request, parent);
    opt::optimizeModule(*module);
  };
  if (spec.optimizeIr) {
    optimize();
    bool pruned;
    {
      ScopedSpan s(tracer, "analysis.ranges_prune", request, parent);
      pruned = analysis::pruneDeadBranches(*module);
    }
    if (pruned)
      optimize();
  }
  if (spec.stackifyRecursion) {
    bool changed;
    {
      ScopedSpan s(tracer, "opt.optimize", request, parent);
      changed = opt::stackifyRecursion(*module);
    }
    if (changed)
      optimize();
  }
  if (spec.ifConvertBranches) {
    {
      ScopedSpan s(tracer, "opt.optimize", request, parent);
      opt::ifConvert(*module);
    }
    optimize();
  }
  counts.instrsOptimized += countInstrs(*module);
  result.module = std::shared_ptr<ir::Module>(std::move(module));
  if (spec.requireCombinational)
    for (const auto &fn : result.module->functions())
      if (fn->blocks().size() > 1) {
        result.error = "not combinational";
        return result;
      }
  sched::TechLibrary lib;
  if (spec.asyncDataflow) {
    ScopedSpan s(tracer, "async.build", request, parent);
    result.asyncInfo = async::buildCircuitInfo(
        *result.module, *result.module->findFunction(top), lib);
    result.ok = true;
    return result;
  }
  {
    ScopedSpan s(tracer, "sched.build_design", request, parent);
    meter.checkDeadline("flow.schedule");
    rtl::Design design =
        rtl::buildDesign(*result.module, top, lib, spec.sched);
    design.ownedModule = result.module;
    result.design = std::move(design);
  }
  {
    ScopedSpan s(tracer, "rtl.area_timing", request, parent);
    result.area = rtl::estimateArea(*result.design, lib);
    result.timing = rtl::estimateTiming(*result.design, lib);
  }
  result.ok = true;
  return result;
}

bool sameReturn(const BitVector &a, const BitVector &b, unsigned width) {
  return a.resize(width, false) == b.resize(width, false);
}

// The golden-model check of the engine's cell: one Interpreter::call and
// one FSMD (or asynchronous dataflow) simulation, return values compared.
bool verifyTraced(const ast::Program &golden, const core::Workload &workload,
                  const flows::FlowResult &result, guard::ExecBudget &meter,
                  Tracer &tracer, std::uint32_t request, std::int32_t parent,
                  std::uint64_t &cycles, std::string &why) {
  ScopedSpan verify(tracer, "core.verify", request, parent);
  std::vector<BitVector> args =
      core::argBits(golden, workload.top, workload.args);
  InterpOptions interpOptions;
  interpOptions.budget = &meter;
  Interpreter interp(golden, interpOptions);
  InterpResult g;
  {
    ScopedSpan s(tracer, "interp.golden", request, verify.id());
    g = interp.call(workload.top, args);
  }
  if (!g.ok) {
    why = "interpreter: " + g.error;
    return false;
  }
  const ast::FuncDecl *fn = golden.findFunction(workload.top);
  unsigned width =
      fn && !fn->returnType->isVoid() ? fn->returnType->bitWidth() : 0;
  if (result.asyncInfo) {
    async::AsyncSimResult r = async::simulateAsync(
        *result.module, workload.top, args, sched::TechLibrary());
    if (!r.ok || (width && !sameReturn(r.returnValue, g.returnValue, width))) {
      why = "asynchronous simulation disagrees with the interpreter";
      return false;
    }
    cycles = 0;
    return true;
  }
  rtl::SimOptions simOptions;
  simOptions.budget = &meter;
  rtl::Simulator sim(*result.design, simOptions);
  rtl::SimResult r;
  {
    ScopedSpan s(tracer, "rtl.fsmd_sim", request, verify.id());
    r = sim.run(args);
  }
  if (!r.ok || (width && !sameReturn(r.returnValue, g.returnValue, width))) {
    why = "FSMD simulation disagrees with the interpreter";
    return false;
  }
  cycles = r.cycles;
  return true;
}

// The co-simulation layers, one call each, on a design the request has
// already verified.
bool probeVsim(const flows::FlowResult &result,
               const std::vector<BitVector> &args, std::uint64_t cycles,
               guard::ExecBudget &meter, Tracer &tracer,
               std::uint32_t request, ReplicaCounts &counts,
               std::string &why) {
  ScopedSpan probe(tracer, "probe", request, -1);
  const rtl::Design &design = *result.design;
  std::string verilog;
  {
    ScopedSpan s(tracer, "rtl.emit", request, probe.id());
    verilog = rtl::emitVerilog(design);
  }
  std::shared_ptr<vsim::SourceUnit> unit;
  {
    ScopedSpan s(tracer, "vsim.parse", request, probe.id());
    vsim::ParseDiagnostic diag;
    unit = vsim::parseVerilog(verilog, diag);
  }
  if (!unit) {
    why = "vsim parse failed";
    return false;
  }
  std::shared_ptr<vsim::Model> model;
  {
    ScopedSpan s(tracer, "vsim.elab", request, probe.id());
    std::string error;
    model = vsim::elaborate(unit, "c2h_" + rtl::verilogIdent(design.top),
                            error);
  }
  if (!model) {
    why = "vsim elaboration failed";
    return false;
  }
  {
    ScopedSpan s(tracer, "vsim.compile", request, probe.id());
    std::string whyNot;
    vsim::compileModel(model, whyNot);
  }
  vsim::Cosimulation cosim(design);
  vsim::CosimOptions options;
  options.budget = &meter;
  vsim::CosimResult first = cosim.run(args, options); // compiles the model
  vsim::CosimResult again;
  {
    ScopedSpan s(tracer, "vsim.run", request, probe.id());
    again = cosim.run(args, options);
  }
  if (!first.ok || !again.ok || again.cycles != cycles) {
    why = "vsim run disagrees with the FSMD cycle count";
    return false;
  }
  counts.vsimCycles += again.cycles;
  return true;
}

} // namespace

bool replayRequest(const std::string &source,
                   const std::vector<std::int64_t> &args,
                   const std::vector<ExpectedRow> &expected,
                   std::uint32_t request, Tracer &tracer,
                   vsim::ModelCache &modelCache, ReplicaCounts &counts,
                   std::string &mismatch) {
  core::Workload workload;
  workload.name = "request";
  workload.source = source;
  workload.top = "main";
  workload.args = args;
  const std::vector<flows::FlowSpec> &specs = flows::allFlows();
  std::vector<ReplicaRow> rows(specs.size());
  std::vector<flows::FlowResult> designs; // kept alive for the probes
  std::vector<std::uint64_t> designCycles;

  // The service charges one unlimited meter per request; so does the replica.
  guard::ExecBudget meter;
  TypeContext types;
  std::unique_ptr<ast::Program> golden;
  {
    ScopedSpan root(tracer, "request", request, -1);
    {
      ScopedSpan s(tracer, "frontend", request, root.id());
      DiagnosticEngine diags;
      golden = frontend(source, types, diags);
    }
    if (!golden) {
      mismatch = "frontend rejected the program";
      return false;
    }
    {
      // FrontendCache::get: analyze once per compile, on a lowered clone.
      ScopedSpan s(tracer, "analysis.analyze", request, root.id());
      DiagnosticEngine diags;
      std::unique_ptr<ast::Program> clone = opt::cloneProgram(*golden);
      opt::inlineFunctions(*clone, types, diags);
      std::unique_ptr<ir::Module> module;
      if (!diags.hasErrors()) {
        opt::removeUnusedFunctions(*clone, workload.top);
        module = ir::lowerToIR(*clone, diags);
        if (diags.hasErrors())
          module.reset();
      }
      analysis::AnalyzeOptions options;
      options.top = workload.top;
      analysis::analyzeProgram(*golden, module.get(), options);
    }
    for (std::size_t i = 0; i < specs.size(); ++i) {
      ScopedSpan flow(tracer, specs[i].info.id.c_str(), request, root.id());
      std::unique_ptr<ast::Program> program = opt::cloneProgram(*golden);
      flows::FlowResult result =
          runFlowTraced(specs[i], *program, types, workload.top, meter,
                        tracer, request, flow.id(), counts);
      rows[i].accepted = result.accepted;
      rows[i].ok = result.ok;
      if (!result.ok)
        continue;
      std::string why;
      if (!verifyTraced(*golden, workload, result, meter, tracer, request,
                        flow.id(), rows[i].cycles, why)) {
        mismatch = specs[i].info.id + ": " + why;
        return false;
      }
      if (result.asyncInfo) {
        rows[i].area = result.asyncInfo->area;
        continue;
      }
      rows[i].area = result.area.total();
      core::CosimVerification cv;
      {
        ScopedSpan s(tracer, "core.cosim", request, flow.id());
        cv = core::cosimAgainstGoldenModel(workload, result, *golden,
                                           vsim::SimEngine::Compiled, &meter,
                                           &modelCache, true);
      }
      if (!cv.ok || cv.cycles != rows[i].cycles) {
        mismatch = specs[i].info.id + ": cosim: " + cv.detail;
        return false;
      }
      designCycles.push_back(rows[i].cycles);
      designs.push_back(std::move(result));
    }
  }

  if (expected.size() != rows.size()) {
    mismatch = "response has " + std::to_string(expected.size()) +
               " rows, replica has " + std::to_string(rows.size());
    return false;
  }
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ExpectedRow &e = expected[i];
    const ReplicaRow &r = rows[i];
    std::string area = formatDouble(r.ok ? r.area : 0.0, 1);
    if (e.flow != specs[i].info.id || e.accepted != r.accepted ||
        e.cycles != r.cycles || e.area != area) {
      mismatch = specs[i].info.id + ": service row (accepted " +
                 (e.accepted ? "1" : "0") + ", cycles " +
                 std::to_string(e.cycles) + ", area " + e.area +
                 ") != replica (accepted " + (r.accepted ? "1" : "0") +
                 ", cycles " + std::to_string(r.cycles) + ", area " + area +
                 ")";
      return false;
    }
  }

  std::vector<BitVector> argBits =
      core::argBits(*golden, workload.top, workload.args);
  for (std::size_t i = 0; i < designs.size(); ++i) {
    std::string why;
    if (!probeVsim(designs[i], argBits, designCycles[i], meter, tracer,
                   request, counts, why)) {
      mismatch = why;
      return false;
    }
  }
  return true;
}

} // namespace perfbench
