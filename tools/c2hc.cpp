// c2hc — the command-line driver for the c2h synthesis framework.
//
//   c2hc <file.uc> [options]
//   c2hc --workload=<name> [options]
//   c2hc --list-workloads
//
//   --flow=<id>        synthesis flow (default: bachc; 'all' = every flow)
//   --workload=<name>  use a registry workload instead of a source file
//   --top=<name>       entry function (default: main)
//   --args=a,b,...     integer arguments for simulation
//   --clock=<ns>       clock period for tunable flows
//   --jobs=<n>         worker threads for --flow=all (default: all cores)
//   --verilog=<file>   write generated Verilog ('-' = stdout)
//   --emit-verilog=<dir>  write <flow>_<workload>.v and a self-checking
//                      <flow>_<workload>_tb.v per synthesized design
//   --cosim            re-execute the emitted Verilog under vsim and print
//                      the three-model verdict (interpreter == FSMD ==
//                      vsim on values; FSMD == vsim on exact cycles)
//   --vsim-engine=<e>  vsim backend for --cosim: 'compiled' (default; the
//                      cycle-compiled bytecode VM, falling back to the
//                      event engine on a guard event), 'compiled-strict'
//                      (same VM, but any fallback is an error — the
//                      no-silent-fallback gate), or 'event' (the
//                      event-driven reference evaluator).  Any recorded
//                      fallback reason is printed with the cosim verdict.
//   --ir               print the optimized IR listing
//   --no-sim           synthesize only, skip simulation/verification
//   --analyze          run the synthesizability analyzer only (no synthesis)
//   --diag-format=<f>  analyzer diagnostic format: text (default) or json;
//                      with --flow=all --cosim, json also prints the rows
//                      exactly as a serve `cosim` response carries them
//   --list-workloads   print the registry workload names and exit
//   --budget-steps=<n>   per-cell step budget (interpreter/scheduler; 0=off)
//   --budget-cycles=<n>  per-cell simulation cycle budget (0=off)
//   --budget-alloc=<n>   per-cell allocation high-water mark, bytes (0=off)
//   --budget-ms=<n>      per-cell wall-clock deadline in ms (0=off)
//   --inject-fault=<site>[:<nth>]  arm a deterministic fault: the nth hit
//                      (1-based, default 1) of that site fails with a
//                      structured INJECTED_FAULT verdict
//   --list-fault-sites print every registered fault-site name and exit
//   --serve[=<path>]   run the persistent cosim service (docs/SERVICE.md):
//                      newline-delimited JSON requests over stdin/stdout,
//                      or over the AF_UNIX socket <path>.  --jobs sizes the
//                      request worker pool, --budget-* set the default
//                      per-request budget, --vsim-engine the default cosim
//                      backend; SIGTERM drains in-flight requests and
//                      exits 0
//   --serve-queue=<n>  max admitted-but-unfinished requests (default 64;
//                      0 = unbounded); excess submissions are answered
//                      with a structured `rejected` response
//   --serve-client-share=<n>  per-client in-flight cap (default 0 = none)
//   --serve-cache-mb=<n>  LRU byte cap, in MiB, for the shared front-end
//                      cache and the response cache (default 64 each)
//
// --flow=all runs the fault-isolated comparison engine: every flow over the
// program, in parallel, each flow's crash contained to its own row.  With
// --cosim the engine adds the vsim witness to every verified synchronous
// row (a `cosim` column; mismatches are per-row notes, never aborts).
//
// --analyze runs the static synthesizability analyzer (par-race detection,
// channel-protocol checking, loop/width/initialization lints) and prints the
// findings without synthesizing anything.
//
// Exit codes:
//   0  success (and, under --analyze, no error-severity findings)
//   1  the program was rejected, failed synthesis/verification or the
//      --cosim three-model check, or --analyze reported at least one
//      error-severity finding
//   2  usage error (bad option, unknown flow/workload, unreadable file)
//   3  internal error (uncaught exception)
//   4  resource limit (a --budget-* limit, the interpreter's step budget,
//      a simulator cycle budget, a combinational loop, or a deadlock
//      stopped the run; the verdict names the stage and consumption)
//
// Examples:
//   c2hc fir.uc --flow=handelc --args=0
//   c2hc gcd.uc --flow=all --args=3528,3780 --jobs=4
//   c2hc --workload=crc32 --flow=all
//   c2hc crc.uc --verilog=- --no-sim
//   c2hc pipeline.uc --analyze --diag-format=json
//   c2hc --workload=gcd --flow=all --cosim
//   c2hc --workload=fir --emit-verilog=out/
#include "analysis/diagnostic.h"
#include "core/c2h.h"
#include "core/engine.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "support/guard.h"
#include "support/text.h"

#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>

using namespace c2h;

namespace {

enum ExitCode : int {
  kExitOk = 0,
  kExitRejected = 1,
  kExitUsage = 2,
  kExitInternal = 3,
  kExitResource = 4,
};

struct Options {
  std::string file;
  std::string workload;
  std::string flow = "bachc";
  std::string top = "main";
  bool topSet = false;
  std::vector<std::int64_t> args;
  bool argsSet = false;
  std::optional<double> clockNs;
  unsigned jobs = 0; // 0 = hardware concurrency
  std::optional<std::string> verilogOut;
  std::optional<std::string> testbenchOut;
  std::optional<std::string> emitVerilogDir;
  bool cosim = false;
  vsim::SimEngine vsimEngine = vsim::SimEngine::Compiled;
  bool printIr = false;
  bool simulate = true;
  bool analyzeOnly = false;
  bool jsonDiags = false;
  bool listWorkloads = false;
  bool listFaultSites = false;
  guard::BudgetSpec budget;
  std::string injectSite; // empty = no fault armed
  std::uint64_t injectNth = 1;
  bool serve = false;
  std::string servePath;             // empty = stdin/stdout line mode
  std::uint64_t serveQueue = 64;     // 0 = unbounded
  std::uint64_t serveClientShare = 0; // 0 = no per-client cap
  std::uint64_t serveCacheMb = 64;   // per cache (front-end and response)
};

bool parseArgs(int argc, char **argv, Options &options) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto valueOf = [&](const std::string &prefix) -> std::optional<std::string> {
      if (arg.rfind(prefix, 0) == 0)
        return arg.substr(prefix.size());
      return std::nullopt;
    };
    // Numeric option values get a diagnostic, not an uncaught
    // std::invalid_argument out of std::sto*.
    auto badNumber = [&](const std::string &flag, const std::string &value) {
      std::cerr << "invalid value for " << flag << ": '" << value << "'\n";
      return false;
    };
    // Unsigned counts: all-digits only, so "-3" is rejected instead of
    // wrapping through std::stoull to 2^64-3.
    auto parseCount = [&](const std::string &flag, const std::string &value,
                          std::uint64_t &out) {
      if (value.empty() ||
          value.find_first_not_of("0123456789") != std::string::npos)
        return badNumber(flag, value);
      try {
        out = std::stoull(value);
      } catch (const std::exception &) {
        return badNumber(flag, value);
      }
      return true;
    };
    if (auto v = valueOf("--flow=")) {
      options.flow = *v;
    } else if (auto v = valueOf("--workload=")) {
      options.workload = *v;
    } else if (auto v = valueOf("--top=")) {
      options.top = *v;
      options.topSet = true;
    } else if (auto v = valueOf("--args=")) {
      std::stringstream ss(*v);
      std::string item;
      while (std::getline(ss, item, ',')) {
        try {
          options.args.push_back(std::stoll(item, nullptr, 0));
        } catch (const std::exception &) {
          return badNumber("--args", item);
        }
      }
      options.argsSet = true;
    } else if (auto v = valueOf("--clock=")) {
      try {
        options.clockNs = std::stod(*v);
      } catch (const std::exception &) {
        return badNumber("--clock", *v);
      }
    } else if (auto v = valueOf("--jobs=")) {
      std::uint64_t jobs = 0;
      if (!parseCount("--jobs", *v, jobs))
        return false;
      if (jobs > std::numeric_limits<unsigned>::max())
        return badNumber("--jobs", *v);
      options.jobs = static_cast<unsigned>(jobs);
    } else if (auto v = valueOf("--emit-verilog=")) {
      options.emitVerilogDir = *v;
    } else if (auto v = valueOf("--verilog=")) {
      options.verilogOut = *v;
    } else if (auto v = valueOf("--tb=")) {
      options.testbenchOut = *v;
    } else if (auto v = valueOf("--diag-format=")) {
      if (*v == "json") {
        options.jsonDiags = true;
      } else if (*v == "text") {
        options.jsonDiags = false;
      } else {
        std::cerr << "invalid value for --diag-format: '" << *v
                  << "' (expected text or json)\n";
        return false;
      }
    } else if (auto v = valueOf("--vsim-engine=")) {
      if (std::optional<vsim::SimEngine> engine = vsim::parseEngine(*v)) {
        options.vsimEngine = *engine;
      } else {
        std::cerr << "invalid value for --vsim-engine: '" << *v
                  << "' (expected event, compiled, or compiled-strict)\n";
        return false;
      }
    } else if (auto v = valueOf("--budget-steps=")) {
      if (!parseCount("--budget-steps", *v, options.budget.maxSteps))
        return false;
    } else if (auto v = valueOf("--budget-cycles=")) {
      if (!parseCount("--budget-cycles", *v, options.budget.maxCycles))
        return false;
    } else if (auto v = valueOf("--budget-alloc=")) {
      if (!parseCount("--budget-alloc", *v, options.budget.maxAllocBytes))
        return false;
    } else if (auto v = valueOf("--budget-ms=")) {
      if (!parseCount("--budget-ms", *v, options.budget.wallMs))
        return false;
    } else if (auto v = valueOf("--inject-fault=")) {
      std::string spec = *v;
      std::size_t colon = spec.rfind(':');
      options.injectNth = 1;
      if (colon != std::string::npos) {
        if (!parseCount("--inject-fault", spec.substr(colon + 1),
                        options.injectNth))
          return false;
        spec = spec.substr(0, colon);
      }
      if (spec.empty() || options.injectNth == 0) {
        std::cerr << "invalid value for --inject-fault: '" << *v
                  << "' (expected <site>[:<nth>], nth >= 1)\n";
        return false;
      }
      options.injectSite = spec;
    } else if (auto v = valueOf("--serve-queue=")) {
      if (!parseCount("--serve-queue", *v, options.serveQueue))
        return false;
    } else if (auto v = valueOf("--serve-client-share=")) {
      if (!parseCount("--serve-client-share", *v, options.serveClientShare))
        return false;
    } else if (auto v = valueOf("--serve-cache-mb=")) {
      if (!parseCount("--serve-cache-mb", *v, options.serveCacheMb))
        return false;
    } else if (auto v = valueOf("--serve=")) {
      options.serve = true;
      options.servePath = *v;
      if (options.servePath.empty()) {
        std::cerr << "--serve= needs a socket path (or plain --serve for "
                     "stdin mode)\n";
        return false;
      }
    } else if (arg == "--serve") {
      options.serve = true;
    } else if (arg == "--list-fault-sites") {
      options.listFaultSites = true;
    } else if (arg == "--cosim") {
      options.cosim = true;
    } else if (arg == "--ir") {
      options.printIr = true;
    } else if (arg == "--no-sim") {
      options.simulate = false;
    } else if (arg == "--analyze") {
      options.analyzeOnly = true;
    } else if (arg == "--list-workloads") {
      options.listWorkloads = true;
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "unknown option: " << arg << "\n";
      return false;
    } else if (options.file.empty()) {
      options.file = arg;
    } else {
      std::cerr << "unexpected argument: " << arg << "\n";
      return false;
    }
  }
  return options.listWorkloads || options.listFaultSites || options.serve ||
         !options.file.empty() || !options.workload.empty();
}

std::string availableFlows() {
  std::string names;
  for (const auto &spec : flows::allFlows())
    names += (names.empty() ? "" : " ") + spec.info.id;
  return names;
}

std::string availableWorkloads() {
  std::string names;
  for (const auto &w : core::standardWorkloads())
    names += (names.empty() ? "" : " ") + w.name;
  return names;
}

void printReport(const analysis::Report &report, const Options &options) {
  if (options.jsonDiags)
    std::cout << report.renderJson() << "\n";
  else
    std::cout << report.renderText();
}

// `--analyze`: run the synthesizability analyzer — par races, channel
// protocol, loop/width/initialization lints — and print the findings
// without synthesizing.  Uses the engine's front-end cache, so the report
// is byte-identical to what `--flow=all` attaches to each row.
int runAnalyze(const core::Workload &workload, const Options &options) {
  core::FrontendCache cache;
  auto entry = cache.get(workload.source, workload.top);
  if (!entry->ok()) {
    std::cerr << entry->error;
    return kExitRejected;
  }
  const analysis::Report &report = *entry->analysis;
  printReport(report, options);
  return report.hasErrors() ? kExitRejected : kExitOk;
}

// A filesystem-friendly stem for the workload: the registry name, or the
// source file's basename without extension.
std::string workloadStem(const core::Workload &workload) {
  std::string stem = std::filesystem::path(workload.name).stem().string();
  return stem.empty() ? "program" : stem;
}

// Write `text` to `path` ('-' = stdout) and report it under `label`, padded
// to the width of "verilog".  A file that cannot be written is exit 1.
int writeOutput(const std::string &path, const std::string &text,
                const char *label) {
  if (path == "-") {
    std::cout << text;
    return kExitOk;
  }
  std::ofstream out(path);
  out << text;
  out.close();
  if (!out) {
    std::cerr << "cannot write " << path << "\n";
    return kExitRejected;
  }
  std::cout << "   " << label << " : wrote " << path << "\n";
  return kExitOk;
}

// A self-checking testbench for `design` that drives `args` and expects the
// golden model's return value.
int writeTestbench(const std::string &path, const rtl::Design &design,
                   const std::vector<BitVector> &args,
                   const core::GoldenRun &golden) {
  if (!golden.ok) {
    std::cerr << "cannot produce testbench: " << golden.detail << "\n";
    return kExitRejected;
  }
  return writeOutput(path,
                     rtl::emitTestbench(design, args, golden.returnValue),
                     "tb     ");
}

// `--emit-verilog=<dir>`: write `<flow>_<workload>.v` plus a self-checking
// `<flow>_<workload>_tb.v`.
int emitDesignFiles(const std::string &dir, const flows::FlowSpec &spec,
                    const core::Workload &workload, const rtl::Design &design,
                    const std::vector<BitVector> &args,
                    const core::GoldenRun &golden) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    std::cerr << "cannot create " << dir << ": " << ec.message() << "\n";
    return kExitRejected;
  }
  std::string stem = spec.info.id + "_" + workloadStem(workload);
  std::string base = (std::filesystem::path(dir) / stem).string();
  int rc = writeOutput(base + ".v", rtl::emitVerilog(design), "verilog");
  if (rc != kExitOk)
    return rc;
  return writeTestbench(base + "_tb.v", design, args, golden);
}

// Exit code of a row that failed: 4 when a resource limit stopped it.
int failedExit(const core::FlowComparison &row) {
  return row.verdict.isResourceLimit() ? kExitResource : kExitRejected;
}

// A single-flow run: one engine cell, rendered.  `--no-sim` without
// `--cosim` runs only the cell's pipeline half, so it synthesizes only.
int runOne(const flows::FlowSpec &spec, const core::Workload &workload,
           const Options &options) {
  core::EngineOptions engineOptions;
  engineOptions.cosim = options.cosim;
  engineOptions.vsimEngine = options.vsimEngine;
  core::CompareEngine engine(engineOptions);
  flows::FlowTuning tuning;
  tuning.clockNs = options.clockNs;
  tuning.budget = options.budget; // one meter for the whole cell
  core::Cell cell;
  if (options.simulate || options.cosim)
    engine.compareCells({&workload, 1}, {&spec, 1}, tuning, engineOptions,
                        [&cell](std::size_t, std::size_t, core::Cell &&c) {
                          cell = std::move(c);
                        });
  else
    cell = engine.synthesize(spec, workload, tuning);
  const core::FlowComparison &row = cell.row;
  if (row.note.rfind("internal error:", 0) == 0) {
    std::cerr << row.note << "\n";
    return kExitInternal;
  }

  std::cout << "== " << spec.info.displayName << " ("
            << spec.info.timingModel << ")\n";
  if (!cell.result) { // the front end failed, or a guard event stopped it
    std::cout << "   failed: " << row.note
              << (row.note.ends_with('\n') ? "" : "\n");
    return failedExit(row);
  }
  const flows::FlowResult &result = *cell.result;
  if (!result.accepted || !result.ok) {
    for (const auto &r : result.rejections)
      std::cout << "   rejected: " << r << "\n";
    if (result.accepted)
      std::cout << "   failed: " << result.error << "\n";
    if (!result.analysisFindings.empty()) {
      std::cout << "\n";
      printReport(result.analysisFindings, options);
    }
    return failedExit(row);
  }
  for (const auto &v : result.violations)
    std::cout << "   TIMING CONSTRAINT VIOLATED: " << v.str() << "\n";

  if (result.asyncInfo) {
    std::cout << "   circuit : " << result.asyncInfo->str() << "\n";
  } else {
    std::cout << "   states  : " << result.design->totalStates() << "\n";
    std::cout << "   area    : " << result.area.str() << "\n";
    std::cout << "   timing  : " << result.timing.str() << "\n";
  }

  if (options.printIr)
    std::cout << result.module->str();

  if (options.simulate) {
    if (!row.verified) {
      std::cout << "   VERIFY FAILED: " << row.note << "\n";
      return failedExit(row);
    }
    std::cout << "   result  : " << cell.golden->returnValue.toStringSigned()
              << " (matches the reference interpreter)\n";
    if (result.asyncInfo)
      std::cout << "   async   : " << formatDouble(row.asyncNs, 1) << " ns\n";
    else
      std::cout << "   cycles  : " << row.cycles << "\n";
  }

  if (options.cosim) {
    if (const char *why = core::cosimSkipReason(result)) {
      std::cout << "   cosim   : not run (" << why << ")\n";
    } else if (!row.verified) {
      // Under --no-sim, a failed verify step is reported by cosim.
      std::cout << "   COSIM FAILED: " << row.note << "\n";
      return failedExit(row);
    } else {
      if (!row.degradation.empty())
        std::cout << "   cosim   : degraded (" << row.degradation << ")\n";
      if (!row.cosimFallback.empty())
        std::cout << "   cosim   : fallback to " << row.cosimEngine
                  << " engine (" << row.cosimFallback << ")\n";
      if (!row.cosimOk) {
        std::cout << "   COSIM FAILED: " << row.cosimNote << "\n";
        return failedExit(row);
      }
      std::cout << "   cosim   : PASS (interpreter == fsmd == vsim, "
                << row.cosimCycles << " cycles, " << row.cosimEngine
                << " engine)\n";
    }
  }

  if (result.design && (options.emitVerilogDir || options.testbenchOut)) {
    auto entry = engine.cache().get(workload.source, workload.top);
    // Without a check half (--no-sim) the testbenches' expected value
    // needs a golden run of its own.
    std::shared_ptr<const core::GoldenRun> golden = cell.golden;
    if (!golden)
      golden = std::make_shared<const core::GoldenRun>(
          core::runGoldenModel(workload, *entry->program));
    std::vector<BitVector> args =
        core::argBits(*entry->program, workload.top, workload.args);
    int rc = kExitOk;
    if (options.emitVerilogDir)
      rc = emitDesignFiles(*options.emitVerilogDir, spec, workload,
                           *result.design, args, *golden);
    if (rc == kExitOk && options.testbenchOut)
      rc = writeTestbench(*options.testbenchOut, *result.design, args,
                          *golden);
    if (rc != kExitOk)
      return rc;
  }
  if (options.verilogOut && result.design)
    return writeOutput(*options.verilogOut, rtl::emitVerilog(*result.design),
                       "verilog");
  return kExitOk;
}

// `--flow=all` batch mode: the comparison engine runs every flow over the
// program on a thread pool, with per-flow fault isolation — one flow
// crashing (note: "internal error: ...") leaves every other row intact.
int runAll(const core::Workload &workload, const Options &options) {
  core::EngineOptions engineOptions;
  engineOptions.jobs = options.jobs;
  engineOptions.cosim = options.cosim;
  engineOptions.vsimEngine = options.vsimEngine;
  core::CompareEngine engine(engineOptions);
  flows::FlowTuning tuning;
  tuning.clockNs = options.clockNs;
  tuning.budget = options.budget; // one fresh ExecBudget per cell
  const std::vector<flows::FlowSpec> &specs = flows::allFlows();
  std::vector<core::FlowComparison> rows(specs.size());
  // `--emit-verilog`: every accepted synchronous design, with the golden
  // run its cell verified against, which its testbench expects.
  struct Emitted {
    rtl::Design design;
    std::shared_ptr<const core::GoldenRun> golden;
  };
  std::vector<std::optional<Emitted>> emitted(specs.size());
  engine.compareCells(
      {&workload, 1}, specs, tuning, engineOptions,
      [&](std::size_t, std::size_t f, core::Cell &&cell) {
        rows[f] = std::move(cell.row);
        if (options.emitVerilogDir && cell.result && cell.result->ok &&
            cell.result->design)
          emitted[f].emplace(
              Emitted{std::move(*cell.result->design), std::move(cell.golden)});
      });

  std::vector<std::string> headers{"flow",   "accepted", "verified", "cycles",
                                   "area",   "fmax",     "note"};
  if (options.cosim)
    headers.insert(headers.begin() + 3, "cosim");
  TextTable table(headers);
  for (const auto &r : rows) {
    std::string cycles =
        r.asyncNs > 0 ? formatDouble(r.asyncNs, 0) + "ns"
                      : (r.cycles ? std::to_string(r.cycles) : "-");
    std::vector<std::string> cells{
        r.flowId, r.accepted ? "yes" : "no",
        r.accepted ? (r.verified ? "yes" : "NO") : "-",
        r.verified ? cycles : "-",
        r.verified ? formatDouble(r.areaTotal, 0) : "-",
        r.fmaxMHz > 0 ? formatDouble(r.fmaxMHz, 0) : "-",
        !r.cosimNote.empty() ? r.cosimNote : r.note};
    if (options.cosim)
      cells.insert(cells.begin() + 3,
                   r.cosimRan ? (r.cosimOk ? "yes" : "NO") : "-");
    table.addRow(cells);
  }
  // Rejections are expected under 'all'; real failures are not.  The serve
  // layer's exit-code table applies, so both surfaces agree.
  int exitCode = serve::comparisonExitCode(rows);
  std::cout << table.str();
  for (const auto &r : rows)
    if (!r.degradation.empty())
      std::cout << "degraded: " << r.flowId << ": " << r.degradation << "\n";
  // A recorded compile fallback means the compiled engine ceded the row to
  // the event engine — surface the whyNot so the downgrade is never silent.
  for (const auto &r : rows)
    if (!r.cosimFallback.empty())
      std::cout << "fallback: " << r.flowId << ": " << r.cosimFallback
                << "\n";
  // Machine-readable cosim rows (--diag-format=json --cosim): the serve
  // layer's row serializer, so the rows equal a serve `cosim` response's.
  if (options.jsonDiags && options.cosim)
    std::cout << serve::serializeRows(rows, true) << "\n";

  auto entry = options.emitVerilogDir
                   ? engine.cache().get(workload.source, workload.top)
                   : nullptr;
  if (entry && entry->ok()) {
    std::vector<BitVector> args =
        core::argBits(*entry->program, workload.top, workload.args);
    for (std::size_t f = 0; f < specs.size(); ++f) {
      if (!emitted[f])
        continue;
      std::cout << "== " << specs[f].info.id << "\n";
      int rc = emitDesignFiles(*options.emitVerilogDir, specs[f], workload,
                               emitted[f]->design, args, *emitted[f]->golden);
      if (rc != kExitOk)
        exitCode = rc;
    }
  }
  // The analyzer ran once on the cached compile; its findings are shared
  // by every row, so summarize them once under the table.
  if (!rows.empty() && rows.front().analysis &&
      !rows.front().analysis->empty()) {
    std::cout << "\nanalyzer findings:\n";
    printReport(*rows.front().analysis, options);
  }
  return exitCode;
}

int run(int argc, char **argv) {
  Options options;
  if (!parseArgs(argc, argv, options)) {
    std::cerr << "usage: c2hc <file.uc> [--flow=<id>|all] [--top=<fn>] "
                 "[--args=a,b] [--clock=ns] [--jobs=n] [--verilog=<file>|-] "
                 "[--emit-verilog=<dir>] [--cosim] "
                 "[--vsim-engine=event|compiled|compiled-strict] "
                 "[--ir] [--no-sim] "
                 "[--analyze] [--diag-format=text|json] "
                 "[--budget-steps=n] [--budget-cycles=n] [--budget-alloc=n] "
                 "[--budget-ms=n] [--inject-fault=site[:nth]]\n"
                 "       c2hc --workload=<name> [options]\n"
                 "       c2hc --serve[=<socket>] [--serve-queue=n] "
                 "[--serve-client-share=n] [--serve-cache-mb=n] [--jobs=n]\n"
                 "       c2hc --list-workloads\n"
                 "       c2hc --list-fault-sites\n\nflows: "
              << availableFlows() << "\nworkloads: " << availableWorkloads()
              << "\n";
    return kExitUsage;
  }

  if (options.listFaultSites) {
    for (const auto &site : guard::allFaultSites())
      std::cout << site << "\n";
    return kExitOk;
  }

  if (options.listWorkloads) {
    for (const auto &w : core::standardWorkloads())
      std::cout << w.name << "\n";
    return kExitOk;
  }

  if (!options.injectSite.empty()) {
    try {
      guard::armFault(options.injectSite, options.injectNth);
    } catch (const std::invalid_argument &e) {
      std::cerr << "--inject-fault: " << e.what() << "\n";
      return kExitUsage;
    }
  }

  if (options.serve) {
    serve::ServerOptions serverOptions;
    serverOptions.socketPath = options.servePath;
    serverOptions.service.jobs = options.jobs;
    serverOptions.service.queueDepth =
        static_cast<std::size_t>(options.serveQueue);
    serverOptions.service.clientShare =
        static_cast<std::size_t>(options.serveClientShare);
    serverOptions.service.frontendCacheBytes = options.serveCacheMb << 20;
    serverOptions.service.responseCacheBytes = options.serveCacheMb << 20;
    serverOptions.service.defaultBudget = options.budget;
    serverOptions.service.vsimEngine = options.vsimEngine;
    return serve::runServer(serverOptions);
  }

  core::Workload workload;
  if (!options.workload.empty()) {
    try {
      workload = core::findWorkload(options.workload);
    } catch (const std::out_of_range &) {
      std::cerr << "unknown workload '" << options.workload
                << "', available: " << availableWorkloads() << "\n";
      return kExitUsage;
    }
    if (options.topSet)
      workload.top = options.top;
    if (options.argsSet)
      workload.args = options.args;
  } else {
    std::ifstream in(options.file);
    if (!in) {
      std::cerr << "cannot open " << options.file << "\n";
      return kExitUsage;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    workload.name = options.file;
    workload.source = buffer.str();
    workload.top = options.top;
    workload.args = options.args;
  }

  if (options.analyzeOnly)
    return runAnalyze(workload, options);

  if (options.flow == "all")
    return runAll(workload, options);

  const flows::FlowSpec *spec = flows::findFlow(options.flow);
  if (!spec) {
    std::cerr << "unknown flow '" << options.flow
              << "', available: " << availableFlows() << "\n";
    return kExitUsage;
  }
  return runOne(*spec, workload, options);
}

} // namespace

int main(int argc, char **argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception &e) {
    std::cerr << "internal error: " << e.what() << "\n";
    return kExitInternal;
  } catch (...) {
    std::cerr << "internal error: non-standard exception\n";
    return kExitInternal;
  }
}
