//===- stack/Stack.cpp - End-to-end verified-stack runner --------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "stack/Stack.h"

#include "cml/Interp.h"
#include "cml/Parser.h"
#include "isa/jit/Jit.h"
#include "stack/Executor.h"
#include "support/StringUtils.h"

using namespace silver;
using namespace silver::stack;

const char *silver::stack::backendKindName(BackendKind B) {
  switch (B) {
  case BackendKind::Interp:
    return "interp";
  case BackendKind::Jit:
    return "jit";
  }
  return "?";
}

bool silver::stack::parseBackendKind(const std::string &Name,
                                     BackendKind &Out) {
  if (Name == "interp") {
    Out = BackendKind::Interp;
    return true;
  }
  if (Name == "jit") {
    Out = BackendKind::Jit;
    return true;
  }
  return false;
}

bool silver::stack::backendSupported(BackendKind B) {
  return B == BackendKind::Interp || isa::jit::hostSupported();
}

const char *silver::stack::hdlBackendKindName(HdlBackendKind B) {
  switch (B) {
  case HdlBackendKind::Interp:
    return "interp";
  case HdlBackendKind::Compiled:
    return "compiled";
  }
  return "?";
}

bool silver::stack::parseHdlBackendKind(const std::string &Name,
                                        HdlBackendKind &Out) {
  if (Name == "interp") {
    Out = HdlBackendKind::Interp;
    return true;
  }
  if (Name == "compiled") {
    Out = HdlBackendKind::Compiled;
    return true;
  }
  return false;
}

const char *silver::stack::levelName(Level L) {
  switch (L) {
  case Level::Spec:
    return "spec";
  case Level::Machine:
    return "machine-sem";
  case Level::Isa:
    return "isa";
  case Level::Rtl:
    return "rtl";
  case Level::Verilog:
    return "verilog";
  }
  return "?";
}

Result<Prepared> silver::stack::prepare(const RunSpec &Spec) {
  Result<cml::Compiled> Compiled =
      cml::compileProgram(Spec.Source, Spec.Compile);
  if (!Compiled)
    return Compiled.error();
  Prepared P;
  P.Program = Compiled.take();
  P.Image.CommandLine = Spec.CommandLine;
  P.Image.StdinData = Spec.StdinData;
  P.Image.Program = P.Program.Program;
  P.Image.Params = Spec.Compile.Layout;
  P.Snapshot = snapshotFor(P.Program, Spec);
  return P;
}

std::shared_ptr<const sys::BootSnapshot>
silver::stack::snapshotFor(const cml::Compiled &Program, const RunSpec &Spec) {
  Result<sys::BootSnapshot> S =
      sys::buildSnapshot(Program.Program, Spec.Compile.Layout);
  if (!S)
    return nullptr;
  return std::make_shared<const sys::BootSnapshot>(S.take());
}

Result<analysis::AuditReport>
silver::stack::auditPrepared(const Prepared &P) {
  Result<sys::MemoryImage> Image = sys::buildImage(P.Image);
  if (!Image)
    return Image.error();
  return analysis::auditImage(*Image,
                              static_cast<Word>(P.Image.Program.size()));
}

Result<analysis::AuditReport>
silver::stack::auditPrepared(const Prepared &P,
                             const analysis::SummaryObligations &O) {
  Result<analysis::AuditReport> Report = auditPrepared(P);
  if (!Report)
    return Report;
  analysis::ImageSummary Summary = analysis::summarizeImage(*Report);
  for (analysis::AuditDiag &D : analysis::checkObligations(Summary, O))
    Report->Diags.push_back(std::move(D));
  return Report;
}

Result<Observed> silver::stack::runSpecLevel(const RunSpec &Spec) {
  Result<cml::Program> Prog =
      cml::parseProgram(cml::withPrelude(Spec.Source));
  if (!Prog)
    return Error("parse error: " + Prog.error().str());
  cml::RunOutput Out = cml::interpretProgram(*Prog, Spec.CommandLine,
                                             Spec.StdinData, 0);
  if (!Out.Ok)
    return Error("interpreter error: " + Out.ErrorMessage);
  Observed O;
  O.StdoutData = Out.StdoutData;
  O.StderrData = Out.StderrData;
  O.ExitCode = Out.ExitCode;
  O.Terminated = true;
  O.Instructions = Out.Steps;
  return O;
}

Result<void> silver::stack::checkAgainstSpec(Level L, const Observed &Run,
                                            const Observed &Spec) {
  std::string Where = std::string(levelName(L)) + ": ";
  if (Run.ExitCode == machine::OomExitCode &&
      Spec.ExitCode != machine::OomExitCode) {
    // extend_with_oom: premature OOM termination with a prefix of the
    // specified output is within the compiler's contract.
    if (!startsWith(Spec.StdoutData, Run.StdoutData))
      return Error(Where + "OOM stdout is not a prefix of the spec's");
    if (!startsWith(Spec.StderrData, Run.StderrData))
      return Error(Where + "OOM stderr is not a prefix of the spec's");
    return {};
  }
  if (Run.StdoutData != Spec.StdoutData)
    return Error(Where + "stdout mismatch: \"" + escapeString(Run.StdoutData) +
                 "\" vs spec \"" + escapeString(Spec.StdoutData) + "\"");
  if (Run.StderrData != Spec.StderrData)
    return Error(Where + "stderr mismatch");
  if (Run.ExitCode != Spec.ExitCode)
    return Error(Where + "exit code " + std::to_string(Run.ExitCode) +
                 " vs spec " + std::to_string(Spec.ExitCode));
  return {};
}

Result<std::vector<Observed>>
silver::stack::checkEndToEnd(const RunSpec &Spec,
                             const std::vector<Level> &Levels) {
  Result<Executor> Exec = Executor::create(Spec);
  if (!Exec)
    return Exec.error();

  // The reference semantics is the yardstick.
  Result<Outcome> SpecOut = Exec->run(Level::Spec);
  if (!SpecOut)
    return SpecOut.error();

  std::vector<Observed> Results;
  for (Level L : Levels) {
    Result<Outcome> R =
        L == Level::Spec ? Result<Outcome>(*SpecOut) : Exec->run(L);
    if (!R)
      return Error(std::string(levelName(L)) + ": " + R.error().str());
    if (R->Status != RunStatus::Completed)
      return Error(std::string(levelName(L)) +
                   ": did not terminate within the step budget");
    if (Result<void> C = checkAgainstSpec(L, R->Behaviour, SpecOut->Behaviour);
        !C)
      return C.error();
    Results.push_back(R->Behaviour);
  }
  return Results;
}
