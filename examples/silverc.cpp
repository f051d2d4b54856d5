//===- examples/silverc.cpp - the SilverStack compiler driver ------------------===//
//
// A command-line front end for the whole stack:
//
//   silverc prog.cml                      compile + run on the Silver ISA
//   silverc --level=rtl prog.cml          ... on the cycle-accurate core
//   silverc --level=verilog prog.cml      ... on the generated Verilog
//   silverc --level=spec prog.cml         ... in the reference semantics
//   silverc --backend=jit prog.cml        ... with the baseline JIT stepping
//                                         the ISA (degrades to the
//                                         interpreter where unsupported)
//   silverc --check prog.cml              run every level and compare
//   silverc --analyze prog.cml            static installed-image audit
//                                         (--json: machine-readable report)
//   silverc --builtin=hello ...           use a built-in app (hello, cat,
//                                         wc, sort, proof, tin) as FILE
//   silverc --emit=asm prog.cml           disassembled machine code
//   silverc --emit=flat prog.cml          the Flat IR after optimisation
//   silverc -O0 ... / -O1 ...             optimisation level (default -O1)
//   silverc --stdin-file=f --args="a b"   program world
//   silverc --trace=FILE prog.cml         write a Chrome trace_event file
//                                         (load in chrome://tracing)
//   silverc --trace-jsonl=FILE prog.cml   ... as JSONL (one event per line)
//   silverc --counters prog.cml           print performance counters
//   silverc --json prog.cml               machine-readable outcome on stdout
//                                         (same shape as silver-client --json)
//
// Reads the program from the named file, or from stdin when the file is
// "-".  Exit code: the program's exit code (run modes), or 1 on errors.
//
//===----------------------------------------------------------------------===//

#include "analysis/Diagnostic.h"
#include "analysis/ImageAudit.h"
#include "asm/Disassembler.h"
#include "cml/CodeGen.h"
#include "cml/Flat.h"
#include "cml/Infer.h"
#include "cml/Lower.h"
#include "cml/Parser.h"
#include "obs/Counters.h"
#include "obs/TraceSink.h"
#include "stack/Apps.h"
#include "stack/Executor.h"
#include "stack/Stack.h"
#include "support/StringUtils.h"
#include "svc/Job.h"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace silver;

namespace {

std::string readAll(std::istream &In) {
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

int fail(const std::string &Message) {
  std::fprintf(stderr, "silverc: error: %s\n", Message.c_str());
  return 1;
}

int usage() {
  std::fprintf(stderr,
               "usage: silverc [--level=spec|machine|isa|rtl|verilog]\n"
               "               [--backend=interp|jit] [--hdl=interp|compiled]\n"
               "               [--check] [--analyze] [--emit=asm|flat|core]\n"
               "               [-O0|-O1] [--stdin-file=FILE] [--args=\"...\"]\n"
               "               [--trace=FILE] [--trace-jsonl=FILE]\n"
               "               [--counters] [--json] FILE|--builtin=NAME\n");
  return 1;
}

/// Source text of a built-in app (stack/Apps.h), or null.
const char *builtinSource(const std::string &Name) {
  if (Name == "hello")
    return stack::helloSource();
  if (Name == "cat")
    return stack::catSource();
  if (Name == "wc")
    return stack::wcSource();
  if (Name == "sort")
    return stack::sortSource();
  if (Name == "proof")
    return stack::proofCheckerSource();
  if (Name == "tin")
    return stack::tinCompilerSource();
  return nullptr;
}

int emitStage(const std::string &Source, const std::string &What,
              const cml::OptOptions &Opt) {
  Result<cml::Program> Prog =
      cml::parseProgram(cml::withPrelude(Source));
  if (!Prog)
    return fail("parse: " + Prog.error().str());
  if (Result<std::map<std::string, cml::Scheme>> T =
          cml::inferProgram(*Prog);
      !T)
    return fail("type: " + T.error().str());
  Result<cml::CoreProgram> Core = cml::lowerProgram(*Prog);
  if (!Core)
    return fail(Core.error().str());
  cml::optimizeCore(*Core, Opt);
  if (What == "core") {
    std::printf("%s\n", cml::coreToString(*Core->Main).c_str());
    return 0;
  }
  cml::FlatProgram Flat = cml::flattenProgram(std::move(*Core));
  if (What == "flat") {
    std::printf("%s", cml::flatToString(Flat).c_str());
    return 0;
  }
  if (What == "asm") {
    cml::CompileOptions Options;
    Options.Opt = Opt;
    Result<cml::Compiled> Compiled = cml::compileProgram(Source, Options);
    if (!Compiled)
      return fail(Compiled.error().str());
    std::printf("%s",
                assembler::formatListing(
                    assembler::disassemble(Compiled->Program,
                                           Compiled->CodeBase))
                    .c_str());
    return 0;
  }
  return fail("unknown --emit kind '" + What + "'");
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Level = "isa";
  std::string Backend;
  std::string Hdl;
  std::string Emit;
  std::string File;
  std::string Builtin;
  std::string StdinFile;
  std::string Args;
  std::string TraceFile;
  std::string TraceJsonlFile;
  bool Check = false;
  bool Analyze = false;
  bool ShowCounters = false;
  bool Json = false;
  cml::OptOptions Opt = cml::OptOptions::all();

  for (int I = 1; I != Argc; ++I) {
    std::string A = Argv[I];
    if (startsWith(A, "--level="))
      Level = A.substr(8);
    else if (startsWith(A, "--backend="))
      Backend = A.substr(10);
    else if (startsWith(A, "--hdl="))
      Hdl = A.substr(6);
    else if (startsWith(A, "--emit="))
      Emit = A.substr(7);
    else if (A == "--check")
      Check = true;
    else if (A == "--analyze")
      Analyze = true;
    else if (startsWith(A, "--trace="))
      TraceFile = A.substr(8);
    else if (startsWith(A, "--trace-jsonl="))
      TraceJsonlFile = A.substr(14);
    else if (A == "--counters")
      ShowCounters = true;
    else if (A == "--json")
      Json = true;
    else if (A == "-O0")
      Opt = cml::OptOptions::none();
    else if (A == "-O1")
      Opt = cml::OptOptions::all();
    else if (startsWith(A, "--stdin-file="))
      StdinFile = A.substr(13);
    else if (startsWith(A, "--args="))
      Args = A.substr(7);
    else if (startsWith(A, "--builtin="))
      Builtin = A.substr(10);
    else if (!A.empty() && A[0] == '-' && A != "-")
      return usage();
    else if (File.empty())
      File = A;
    else
      return usage();
  }
  if (File.empty() == Builtin.empty())
    return usage();

  stack::BackendKind ExecBackend = stack::BackendKind::Interp;
  if (!Backend.empty() && !stack::parseBackendKind(Backend, ExecBackend))
    return usage();
  if (ExecBackend == stack::BackendKind::Jit &&
      !stack::backendSupported(ExecBackend))
    std::fprintf(stderr,
                 "silverc: warning: the jit backend is not supported on "
                 "this host; running on the interpreter\n");
  stack::HdlBackendKind HdlBackend = stack::HdlBackendKind::Interp;
  if (!Hdl.empty() && !stack::parseHdlBackendKind(Hdl, HdlBackend))
    return usage();

  std::string Source;
  if (!Builtin.empty()) {
    const char *Text = builtinSource(Builtin);
    if (!Text)
      return fail("unknown builtin '" + Builtin + "'");
    Source = Text;
    File = Builtin;
  } else if (File == "-") {
    Source = readAll(std::cin);
  } else {
    std::ifstream In(File);
    if (!In)
      return fail("cannot open '" + File + "'");
    Source = readAll(In);
  }

  if (!Emit.empty())
    return emitStage(Source, Emit, Opt);

  stack::RunSpec Spec;
  Spec.Source = Source;
  Spec.Compile.Opt = Opt;
  Spec.Exec.Backend = ExecBackend;
  Spec.Exec.Hdl = HdlBackend;
  Spec.CommandLine = {File == "-" ? "prog" : File};
  if (!Args.empty())
    for (const std::string &Arg : splitString(Args, ' '))
      if (!Arg.empty())
        Spec.CommandLine.push_back(Arg);
  if (!StdinFile.empty()) {
    std::ifstream In(StdinFile, std::ios::binary);
    if (!In)
      return fail("cannot open '" + StdinFile + "'");
    Spec.StdinData = readAll(In);
  }

  if (Analyze) {
    Result<stack::Prepared> P = stack::prepare(Spec);
    if (!P)
      return fail(P.error().str());
    Result<analysis::AuditReport> Report = stack::auditPrepared(*P);
    if (!Report)
      return fail(Report.error().str());
    std::vector<analysis::Diagnostic> Diags =
        analysis::toDiagnostics(Report->Diags);
    if (Json) {
      std::printf("{\n\"diagnostics\": %s\n}\n",
                  analysis::diagnosticsJson(Diags).c_str());
      return Report->ok() ? 0 : 1;
    }
    for (const analysis::Diagnostic &D : Diags)
      std::printf("%s\n", analysis::formatDiagnostic(D).c_str());
    std::fprintf(stderr,
                 "silverc: image audit: %zu diagnostic(s), %zu resolved "
                 "computed jumps\n",
                 Report->Diags.size(),
                 Report->Startup.Resolved.size() +
                     Report->Syscall.Resolved.size() +
                     Report->Program.Resolved.size());
    return Report->ok() ? 0 : 1;
  }

  if (Check) {
    Result<std::vector<stack::Observed>> R = stack::checkEndToEnd(
        Spec, {stack::Level::Machine, stack::Level::Isa, stack::Level::Rtl,
               stack::Level::Verilog});
    if (!R)
      return fail(R.error().str());
    std::fprintf(stderr, "silverc: all levels agree\n");
    std::fwrite(R->back().StdoutData.data(), 1,
                R->back().StdoutData.size(), stdout);
    return R->back().ExitCode;
  }

  stack::Level L;
  if (Level == "spec")
    L = stack::Level::Spec;
  else if (Level == "machine")
    L = stack::Level::Machine;
  else if (Level == "isa")
    L = stack::Level::Isa;
  else if (Level == "rtl")
    L = stack::Level::Rtl;
  else if (Level == "verilog")
    L = stack::Level::Verilog;
  else
    return usage();

  bool WantObs = !TraceFile.empty() || !TraceJsonlFile.empty() || ShowCounters;
  if (!WantObs && L == stack::Level::Spec) {
    // The reference interpreter needs no compilation.
    Result<stack::Outcome> Out = stack::runSpecLevel(Spec);
    if (!Out)
      return fail(Out.error().str());
    const stack::Observed &R = Out->Behaviour;
    if (Json) {
      std::printf("%s\n",
                  svc::outcomeJson(R.Terminated ? "completed" : "timeout",
                                   Level, R)
                      .c_str());
      return R.Terminated ? R.ExitCode : 1;
    }
    std::fwrite(R.StdoutData.data(), 1, R.StdoutData.size(), stdout);
    std::fwrite(R.StderrData.data(), 1, R.StderrData.size(), stderr);
    std::fprintf(stderr, "silverc: [spec] %llu instructions, exit %d\n",
                 (unsigned long long)R.Instructions, R.ExitCode);
    return R.ExitCode;
  }

  Result<stack::Executor> ExecOr = stack::Executor::create(Spec);
  if (!ExecOr)
    return fail(ExecOr.error().str());
  stack::Executor Exec = ExecOr.take();

  obs::TraceSink Trace;
  Result<obs::RegionMap> Map = Exec.regionMap();
  if (!Map)
    return fail(Map.error().str());
  obs::Counters Counters(Map.take(), stack::Executor::ffiNames());
  obs::MultiObserver Multi;
  if (WantObs) {
    Trace.setFfiNames(stack::Executor::ffiNames());
    if (!TraceFile.empty() || !TraceJsonlFile.empty())
      Multi.add(&Trace);
    if (ShowCounters)
      Multi.add(&Counters);
    Exec.attach(&Multi);
  }

  Result<stack::Outcome> Out = Exec.run(L);
  if (!Out)
    return fail(Out.error().str());
  const stack::Observed &R = Out->Behaviour;

  auto WriteTraces = [&] {
    if (!TraceFile.empty()) {
      std::ofstream F(TraceFile, std::ios::binary);
      if (!F)
        return fail("cannot write '" + TraceFile + "'");
      Trace.writeChromeTrace(F);
      std::fprintf(stderr,
                   "silverc: wrote %zu trace events to %s (open in "
                   "chrome://tracing)\n",
                   Trace.size(), TraceFile.c_str());
    }
    if (!TraceJsonlFile.empty()) {
      std::ofstream F(TraceJsonlFile, std::ios::binary);
      if (!F)
        return fail("cannot write '" + TraceJsonlFile + "'");
      Trace.writeJsonl(F);
      std::fprintf(stderr, "silverc: wrote %zu trace events to %s\n",
                   Trace.size(), TraceJsonlFile.c_str());
    }
    return 0;
  };

  if (int E = WriteTraces())
    return E;
  if (ShowCounters)
    std::fputs(Counters.report().c_str(), stderr);

  if (Json) {
    // The one outcome shape shared with silver-client --json, so the
    // service smoke test parses both with the same code.
    const char *Status =
        Out->Status == stack::RunStatus::Completed ? "completed" : "timeout";
    std::printf("%s\n", svc::outcomeJson(Status, Level, R).c_str());
    return R.Terminated ? R.ExitCode : 1;
  }

  if (!R.Terminated)
    return fail("program did not terminate within the step budget");
  std::fwrite(R.StdoutData.data(), 1, R.StdoutData.size(), stdout);
  std::fwrite(R.StderrData.data(), 1, R.StderrData.size(), stderr);
  std::fprintf(stderr, "silverc: [%s] %llu instructions", Level.c_str(),
               (unsigned long long)R.Instructions);
  if (R.Cycles)
    std::fprintf(stderr, ", %llu cycles", (unsigned long long)R.Cycles);
  std::fprintf(stderr, ", exit %d\n", R.ExitCode);
  return R.ExitCode;
}
