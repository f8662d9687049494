// End-to-end exit-code and diagnostic-format contract for the c2hc driver.
//
//   0  success / no error-severity findings
//   1  rejection, synthesis or verification failure, analyzer errors
//   2  usage error
//   3  internal error
//   4  resource limit (budget trip, comb loop, simulator overrun)
//
// Run as:  test_cli <path-to-c2hc> <fixtures-dir>
//
// Deliberately not a gtest binary: it exercises the real executable through
// the shell, so it takes the c2hc path on its own command line (CMake passes
// $<TARGET_FILE:c2hc>).
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#ifndef _WIN32
#include <sys/wait.h>
#endif

namespace {

int failures = 0;

std::string tempFile(int n) {
  return "test_cli_out_" + std::to_string(n) + ".txt";
}

// Run `cmd`, capturing stdout+stderr; returns the exit status (not the raw
// wait status).
int run(const std::string &cmd, std::string &output, int n) {
  std::string path = tempFile(n);
  std::string full = cmd + " > " + path + " 2>&1";
  int status = std::system(full.c_str());
#ifndef _WIN32
  if (WIFEXITED(status))
    status = WEXITSTATUS(status);
#endif
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  output = ss.str();
  std::remove(path.c_str());
  return status;
}

void expectExit(const std::string &name, const std::string &cmd, int want,
                int n, const std::string &mustContain = "") {
  std::string output;
  int got = run(cmd, output, n);
  if (got != want) {
    std::cerr << "FAIL " << name << ": exit " << got << ", want " << want
              << "\n  cmd: " << cmd << "\n  output:\n" << output << "\n";
    ++failures;
    return;
  }
  if (!mustContain.empty() && output.find(mustContain) == std::string::npos) {
    std::cerr << "FAIL " << name << ": output missing '" << mustContain
              << "'\n  cmd: " << cmd << "\n  output:\n" << output << "\n";
    ++failures;
    return;
  }
  std::cout << "ok   " << name << "\n";
}

// Byte-exact golden comparison: the diagnostic formats are a contract, so
// any drift — ordering, spacing, schema — must be a deliberate golden-file
// update, not an accident.
void expectOutputMatchesFile(const std::string &name, const std::string &cmd,
                             int wantExit, const std::string &goldenPath,
                             int n) {
  std::string output;
  int got = run(cmd, output, n);
  if (got != wantExit) {
    std::cerr << "FAIL " << name << ": exit " << got << ", want " << wantExit
              << "\n  cmd: " << cmd << "\n  output:\n" << output << "\n";
    ++failures;
    return;
  }
  std::ifstream in(goldenPath, std::ios::binary);
  if (!in) {
    std::cerr << "FAIL " << name << ": cannot open golden " << goldenPath
              << "\n";
    ++failures;
    return;
  }
  std::stringstream golden;
  golden << in.rdbuf();
  if (output != golden.str()) {
    std::cerr << "FAIL " << name << ": output differs from golden "
              << goldenPath << "\n--- got\n" << output << "--- want\n"
              << golden.str() << "\n";
    ++failures;
    return;
  }
  std::cout << "ok   " << name << "\n";
}

void expectSameOutput(const std::string &name, const std::string &cmdA,
                      const std::string &cmdB, int n) {
  std::string a, b;
  run(cmdA, a, n);
  run(cmdB, b, n + 1);
  if (a != b) {
    std::cerr << "FAIL " << name << ": outputs differ\n--- A (" << cmdA
              << ")\n" << a << "--- B (" << cmdB << ")\n" << b << "\n";
    ++failures;
    return;
  }
  std::cout << "ok   " << name << "\n";
}

// The JSON array that opens at text[open], through its matching ']'
// (brackets inside strings don't count); empty when unterminated.
std::string jsonArrayAt(const std::string &text, std::size_t open) {
  int depth = 0;
  bool inString = false;
  for (std::size_t i = open; i < text.size(); ++i) {
    char c = text[i];
    if (inString) {
      if (c == '\\')
        ++i;
      else if (c == '"')
        inString = false;
    } else if (c == '"') {
      inString = true;
    } else if (c == '[' || c == '{') {
      ++depth;
    } else if ((c == ']' || c == '}') && --depth == 0) {
      return text.substr(open, i - open + 1);
    }
  }
  return {};
}

std::vector<std::string> lines(const std::string &text) {
  std::vector<std::string> out;
  std::stringstream ss(text);
  std::string line;
  while (std::getline(ss, line))
    out.push_back(line);
  return out;
}

// One row format and one exit-code table: for every registry workload,
// `--flow=all --cosim --diag-format=json` prints exactly the rows a serve
// `cosim` response carries, and exits with the response's exit_code.
void expectCliRowsMatchServe(const std::string &c2hc, int &n) {
  const std::string name = "cli_rows_match_serve_rows";
  std::string listing;
  run(c2hc + " --list-workloads", listing, ++n);
  const std::vector<std::string> workloads = lines(listing);
  const std::string requests = tempFile(++n) + ".jsonl";
  {
    std::ofstream out(requests);
    for (const auto &w : workloads)
      out << "{\"id\":\"" << w << "\",\"op\":\"cosim\",\"workload\":\"" << w
          << "\",\"timing\":false}\n";
  }
  std::string served;
  // The daemon's stderr banner stays out of the captured responses.
  run("(" + c2hc + " --serve --jobs=2 < " + requests + " 2>/dev/null)",
      served, ++n);
  std::remove(requests.c_str());
  const std::vector<std::string> responses = lines(served);
  if (workloads.empty() || responses.size() != workloads.size()) {
    std::cerr << "FAIL " << name << ": " << responses.size()
              << " serve responses for " << workloads.size()
              << " workloads\n";
    ++failures;
    return;
  }
  for (std::size_t i = 0; i < workloads.size(); ++i) {
    const std::string &w = workloads[i];
    std::string cli;
    int cliExit = run(c2hc + " --workload=" + w +
                          " --flow=all --cosim --diag-format=json",
                      cli, ++n);
    std::size_t cliAt = cli.find("\n[{\"flow\":");
    std::string cliRows =
        cliAt == std::string::npos ? "" : jsonArrayAt(cli, cliAt + 1);
    std::size_t rowsAt = responses[i].find("\"rows\":[");
    std::string serveRows = rowsAt == std::string::npos
                                ? ""
                                : jsonArrayAt(responses[i], rowsAt + 7);
    const std::string serveExit =
        "\"exit_code\":" + std::to_string(cliExit) + ",";
    if (cliRows.empty() || cliRows != serveRows ||
        responses[i].find(serveExit) == std::string::npos) {
      std::cerr << "FAIL " << name << " (" << w << "): CLI exit " << cliExit
                << "\n--- CLI rows\n" << cliRows << "\n--- serve response\n"
                << responses[i] << "\n";
      ++failures;
      return;
    }
  }
  std::cout << "ok   " << name << " (" << workloads.size()
            << " workloads)\n";
}

// Every file under `dir` (relative path -> contents).
std::map<std::string, std::string> filesUnder(const std::string &dir) {
  std::map<std::string, std::string> files;
  std::error_code ec;
  for (const auto &entry :
       std::filesystem::recursive_directory_iterator(dir, ec)) {
    if (!entry.is_regular_file())
      continue;
    std::ifstream in(entry.path(), std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    files[std::filesystem::relative(entry.path(), dir).string()] = ss.str();
  }
  return files;
}

// `--flow=all --emit-verilog` keeps the designs its cells produced; a
// single-flow `--no-sim --emit-verilog` synthesizes one flow.  Both must
// write the same `.v` and `_tb.v` files, byte for byte.
void expectEmitPathsAgree(const std::string &c2hc, const std::string &w,
                          int &n) {
  const std::string name = "emit_verilog_all_equals_single_flow (" + w + ")";
  const std::string all = "test_cli_emit_all", one = "test_cli_emit_one";
  std::filesystem::remove_all(all);
  std::filesystem::remove_all(one);
  std::string output;
  run(c2hc + " --workload=" + w + " --flow=all --emit-verilog=" + all,
      output, ++n);
  std::string usage, flows;
  run(c2hc, usage, ++n); // the usage text lists every flow id
  std::stringstream tail(usage.substr(usage.find("\nflows: ") + 8));
  std::getline(tail, flows);
  std::stringstream ids(flows);
  std::string id;
  while (ids >> id)
    run(c2hc + " --workload=" + w + " --flow=" + id +
            " --no-sim --emit-verilog=" + one,
        output, ++n);
  auto a = filesUnder(all), b = filesUnder(one);
  std::filesystem::remove_all(all);
  std::filesystem::remove_all(one);
  if (a.empty() || a != b) {
    std::cerr << "FAIL " << name << ": " << a.size() << " file(s) from "
              << "--flow=all, " << b.size() << " from single flows\n";
    for (const auto &[file, text] : a)
      if (!b.count(file) || b[file] != text)
        std::cerr << "  differs: " << file << "\n";
    ++failures;
    return;
  }
  std::cout << "ok   " << name << " (" << a.size() << " files)\n";
}

// An armed fault's `site:nth` names one hit in cell order, so a faulted
// --flow=all run prints the same at every --jobs.
void expectFaultedRunsJobsInvariant(const std::string &c2hc, int &n) {
  const std::string name = "injected_fault_jobs_invariant";
  const std::string cmd = c2hc + " --workload=gcd --flow=all --cosim"
                                 " --inject-fault=vsim.compile";
  std::string serial;
  run(cmd + " --jobs=1", serial, ++n);
  for (int i = 0; i < 10; ++i) {
    std::string parallel;
    run(cmd + " --jobs=4", parallel, ++n);
    if (parallel != serial) {
      std::cerr << "FAIL " << name << ": run " << i
                << " at --jobs=4 differs\n--- jobs=1\n" << serial
                << "--- jobs=4\n" << parallel << "\n";
      ++failures;
      return;
    }
  }
  std::cout << "ok   " << name << "\n";
}

} // namespace

int main(int argc, char **argv) {
  if (argc != 3) {
    std::cerr << "usage: test_cli <c2hc> <fixtures-dir>\n";
    return 2;
  }
  const std::string c2hc = argv[1];
  const std::string fx = argv[2];
  int n = 0;

  // --- usage errors: exit 2 -----------------------------------------------
  expectExit("no_arguments", c2hc, 2, ++n, "usage:");
  expectExit("unknown_option", c2hc + " --frobnicate", 2, ++n,
             "unknown option");
  expectExit("bad_diag_format",
             c2hc + " " + fx + "/good.uc --analyze --diag-format=xml", 2, ++n,
             "--diag-format");
  expectExit("unknown_flow", c2hc + " " + fx + "/good.uc --flow=vhdl", 2, ++n,
             "unknown flow");
  expectExit("unknown_workload", c2hc + " --workload=nonexistent", 2, ++n,
             "unknown workload");
  expectExit("missing_file", c2hc + " " + fx + "/no_such_file.uc", 2, ++n,
             "cannot open");

  // --- success: exit 0 ----------------------------------------------------
  expectExit("list_workloads", c2hc + " --list-workloads", 0, ++n, "gcd");
  expectExit("clean_analyze", c2hc + " " + fx + "/good.uc --analyze", 0, ++n,
             "0 error(s)");
  expectExit("clean_synthesis",
             c2hc + " " + fx + "/good.uc --flow=bachc --args=3", 0, ++n,
             "matches the reference interpreter");
  expectExit("cosim_single_flow",
             c2hc + " " + fx + "/good.uc --flow=bachc --args=3 --cosim", 0,
             ++n, "cosim   : PASS");
  expectExit("cosim_all_flows", c2hc + " --workload=gcd --flow=all --cosim",
             0, ++n, "cosim");
  // compiled-strict: every accepted row must run on the compiled engine
  // with zero fallbacks — a downgrade would fail the row and flip exit 1.
  expectExit("cosim_strict_no_fallback",
             c2hc + " --workload=gcd --flow=all --cosim"
                    " --vsim-engine=compiled-strict",
             0, ++n, "cosim");
  expectExit("cosim_strict_single_flow",
             c2hc + " " + fx + "/good.uc --flow=bachc --args=3 --cosim"
                    " --vsim-engine=compiled-strict",
             0, ++n, "compiled engine");
  expectExit("bad_vsim_engine",
             c2hc + " --workload=gcd --cosim --vsim-engine=interpreted", 2,
             ++n, "invalid value for --vsim-engine");
  expectExit("native_strict_vsim_engine_is_rejected",
             c2hc + " --workload=gcd --cosim --vsim-engine=native-strict", 2,
             ++n, "expected event, compiled, or compiled-strict");
  expectExit("sandbox_option_is_rejected",
             c2hc + " --workload=gcd --cosim --sandbox", 2, ++n,
             "unknown option: --sandbox");
  // JSON cosim rows carry the engine and (empty) fallback per flow.
  expectExit("cosim_json_rows",
             c2hc + " --workload=gcd --flow=all --cosim --diag-format=json",
             0, ++n, "\"engine\":\"compiled\",\"fallback\":\"\"");
  expectExit("emit_verilog_dir",
             c2hc + " " + fx + "/good.uc --flow=bachc --args=3"
                    " --emit-verilog=test_cli_emit_out",
             0, ++n, "_tb.v");
  std::remove("test_cli_emit_out/bachc_good.v");
  std::remove("test_cli_emit_out/bachc_good_tb.v");
  std::remove("test_cli_emit_out");
  expectCliRowsMatchServe(c2hc, n);
  expectEmitPathsAgree(c2hc, "fir", n);

  // --- program errors: exit 1 ---------------------------------------------
  expectExit("race_analyze", c2hc + " " + fx + "/race.uc --analyze", 1, ++n,
             "C2H-RACE-001");
  expectExit("race_json",
             c2hc + " " + fx + "/race.uc --analyze --diag-format=json", 1,
             ++n, "\"code\":\"C2H-RACE-001\"");
  expectExit("race_rejected_by_flow",
             c2hc + " " + fx + "/race.uc --flow=handelc", 1, ++n,
             "C2H-RACE-001");
  expectExit("deadlock_analyze", c2hc + " " + fx + "/deadlock.uc --analyze",
             1, ++n, "C2H-CHAN-006");
  // Range-analysis family: the seeded fixture trips every code; analyzer
  // errors are exit 1, the JSON carries the schema version, flows reject
  // before synthesis, and the full JSON report is golden-pinned.
  expectExit("rangebugs_analyze",
             c2hc + " " + fx + "/rangebugs.uc --analyze", 1, ++n,
             "C2H-BOUND-001");
  expectExit("rangebugs_json_schema_version",
             c2hc + " " + fx + "/rangebugs.uc --analyze --diag-format=json",
             1, ++n, "\"schema_version\":2");
  expectExit("rangebugs_rejected_by_flow",
             c2hc + " " + fx + "/rangebugs.uc --flow=bachc --args=3", 1, ++n,
             "C2H-DIV-001");
  expectOutputMatchesFile(
      "rangebugs_json_golden",
      c2hc + " " + fx + "/rangebugs.uc --analyze --diag-format=json", 1,
      fx + "/rangebugs_analyze.json", ++n);
  // An output file that cannot be written is a failure, never a "wrote".
  expectExit("unwritable_testbench_path",
             c2hc + " --workload=fir --flow=bachc --no-sim"
                    " --tb=/nonexistent_dir/x_tb.v",
             1, ++n, "cannot write");
  expectExit("unwritable_verilog_path",
             c2hc + " --workload=fir --flow=bachc --no-sim"
                    " --verilog=/nonexistent_dir/x.v",
             1, ++n, "cannot write");
  // A source that does not compile: the single-flow run prints the front
  // end's diagnostics, and --flow=all fails like --analyze does.
  expectExit("syntax_error_single_flow",
             c2hc + " " + fx + "/syntax_error.uc --flow=bachc", 1, ++n,
             "expected expression");
  expectExit("syntax_error_all_flows",
             c2hc + " " + fx + "/syntax_error.uc --flow=all", 1, ++n,
             "expected expression");
  expectExit("unbounded_loop_under_cones",
             c2hc + " " + fx + "/unbounded.uc --flow=cones", 1, ++n);

  // --- resource limits and fault injection --------------------------------
  expectExit("list_fault_sites", c2hc + " --list-fault-sites", 0, ++n,
             "flow.lower");
  expectExit("negative_budget_value",
             c2hc + " " + fx + "/good.uc --flow=bachc --args=3"
                    " --budget-ms=-3",
             2, ++n, "invalid value for --budget-ms");
  // --jobs is digits only and must fit `unsigned`: "-3" used to wrap to
  // 4294967293 worker threads.
  expectExit("negative_jobs", c2hc + " " + fx + "/good.uc --flow=all --jobs=-3",
             2, ++n, "invalid value for --jobs");
  expectExit("oversized_jobs",
             c2hc + " " + fx + "/good.uc --flow=all --jobs=4294967296", 2, ++n,
             "invalid value for --jobs");
  expectExit("unknown_fault_site",
             c2hc + " " + fx + "/good.uc --flow=bachc --args=3"
                    " --inject-fault=bogus.site",
             2, ++n, "unknown fault site");
  expectExit("injected_fault_exit_1",
             c2hc + " " + fx + "/good.uc --flow=bachc --args=3"
                    " --inject-fault=flow.lower",
             1, ++n, "INJECTED_FAULT");
  // The nth field is parsed as digits only: "-3" must be a usage error,
  // not a wrap through stoull to the 2^64-3rd hit.
  expectExit("negative_inject_nth",
             c2hc + " " + fx + "/good.uc --flow=bachc --args=3"
                    " --inject-fault=flow.lower:-3",
             2, ++n, "invalid value for --inject-fault");
  expectExit("zero_inject_nth",
             c2hc + " " + fx + "/good.uc --flow=bachc --args=3"
                    " --inject-fault=flow.lower:0",
             2, ++n, "invalid value for --inject-fault");
  // An injected vsim.compile fault downgrades the cosim to the event
  // engine; the recorded reason is surfaced, never silent.
  expectExit("compile_fault_fallback_is_surfaced",
             c2hc + " " + fx + "/good.uc --flow=bachc --args=3 --cosim"
                    " --inject-fault=vsim.compile",
             0, ++n, "fallback to event engine");
  // Under compiled-strict the same fault is an error, exit 1.
  expectExit("compile_fault_strict_is_an_error",
             c2hc + " " + fx + "/good.uc --flow=bachc --args=3 --cosim"
                    " --vsim-engine=compiled-strict"
                    " --inject-fault=vsim.compile",
             1, ++n, "compiled-strict");
  // fir's golden model allocates its three globals before the call, so
  // guard.alloc's 2nd hit lands in the interpreter's constructor.  The event
  // is the golden run's verdict: the row keeps its design and area and
  // fails verification, instead of losing its flow result.
  const std::string goldenAllocFault =
      c2hc + " --workload=fir --flow=handelc --cosim"
             " --inject-fault=guard.alloc:2";
  expectExit("golden_alloc_fault_keeps_the_design", goldenAllocFault, 1, ++n,
             "   area    : area{");
  expectExit("golden_alloc_fault_is_the_verdict", goldenAllocFault, 1, ++n,
             "VERIFY FAILED: interpreter: INJECTED_FAULT at guard.alloc");
  expectExit("step_budget_exit_4",
             c2hc + " " + fx + "/longloop.uc --flow=bachc --args=1"
                    " --budget-steps=10000",
             4, ++n, "STEP_LIMIT");
  expectExit("generous_budget_still_passes",
             c2hc + " " + fx + "/good.uc --flow=bachc --args=3"
                    " --budget-steps=100000000 --budget-ms=60000",
             0, ++n, "matches the reference interpreter");

  // --- determinism --------------------------------------------------------
  std::string analyzeCmd =
      c2hc + " " + fx + "/race.uc --analyze --diag-format=json";
  expectSameOutput("analyze_repeatable", analyzeCmd, analyzeCmd, n += 2);
  expectSameOutput("all_flows_jobs_invariant",
                   c2hc + " " + fx + "/good.uc --flow=all --args=3 --jobs=1",
                   c2hc + " " + fx + "/good.uc --flow=all --args=3 --jobs=4",
                   n += 2);
  expectFaultedRunsJobsInvariant(c2hc, n);

  if (failures) {
    std::cerr << failures << " failure(s)\n";
    return 1;
  }
  std::cout << "all CLI exit-code checks passed\n";
  return 0;
}
