//===- stack/Stack.cpp - End-to-end verified-stack runner --------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "stack/Stack.h"

#include "cml/Interp.h"
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

const char *silver::stack::runStatusName(RunStatus S) {
  switch (S) {
  case RunStatus::Completed:
    return "completed";
  case RunStatus::Paused:
    return "paused";
  case RunStatus::Timeout:
    return "timeout";
  }
  return "?";
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

bool silver::stack::parseLevel(const std::string &Name, Level &Out) {
  static const std::pair<const char *, Level> Levels[] = {
      {"spec", Level::Spec},   {"machine", Level::Machine},
      {"isa", Level::Isa},     {"rtl", Level::Rtl},
      {"verilog", Level::Verilog},
  };
  for (const auto &[Spelling, L] : Levels)
    if (Name == Spelling) {
      Out = L;
      return true;
    }
  return false;
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

Result<Outcome> silver::stack::runSpecLevel(const RunSpec &Spec) {
  Result<cml::Program> Prog = cml::parseWithPrelude(Spec.Source);
  if (!Prog)
    return Error("parse error: " + Prog.error().str());
  if (auto Types = cml::inferWithPrelude(*Prog); !Types)
    return Error("type error: " + Types.error().str());
  cml::RunOutput Out = cml::interpretProgram(*Prog, Spec.CommandLine,
                                             Spec.StdinData, 0);
  if (!Out.Ok)
    return Error("interpreter error: " + Out.ErrorMessage);
  Observed B{Out.Ffi.getStdout(), Out.Ffi.getStderr(), Out.ExitCode,
             /*Terminated=*/true, Out.Steps};
  return Outcome{RunStatus::Completed, std::move(B), std::move(Out.Ffi.Trace)};
}

/// `read(conf "...", 104 bytes, request "\u0000d")`; long byte strings
/// are cut short.
static std::string describe(const ffi::IoEvent &E) {
  auto Text = [](const std::vector<uint8_t> &V) {
    std::string S(V.begin(), V.begin() + std::min<size_t>(V.size(), 32));
    return jsonQuote(S) + (V.size() > 32 ? "..." : "");
  };
  const std::vector<std::string> &Names = ffi::BasisFfi::callNames();
  return (E.Index < Names.size() ? Names[E.Index]
                                 : "ffi " + std::to_string(E.Index)) +
         "(conf " + Text(E.Conf) + ", " + std::to_string(E.BytesLen) +
         " bytes, request " + Text(E.Request) + ")";
}

Result<void> silver::stack::compareBehaviour(const Outcome &Run,
                                             const Outcome &Ref,
                                             bool LicenseOom) {
  const Observed &A = Run.Behaviour;
  const Observed &B = Ref.Behaviour;
  // extend_with_oom: premature OOM termination after a prefix of the
  // reference's behaviour is within the compiler's contract.
  bool Oom = LicenseOom && A.ExitCode == machine::OomExitCode &&
             B.ExitCode != machine::OomExitCode;
  auto Licensed = [Oom](const std::string &X, const std::string &Y) {
    return Oom ? startsWith(Y, X) : X == Y;
  };
  const char *After = Oom ? " after an OOM exit" : "";
  if (!Licensed(A.StdoutData, B.StdoutData))
    return Error("stdout \"" + escapeString(A.StdoutData) + "\" vs \"" +
                 escapeString(B.StdoutData) + "\"" + After);
  if (!Licensed(A.StderrData, B.StderrData))
    return Error(std::string("stderr differs") + After);
  if (!Oom && (A.Terminated != B.Terminated || A.ExitCode != B.ExitCode))
    return Error("exit " + std::to_string(A.Terminated) + "/" +
                 std::to_string(A.ExitCode) + " vs " +
                 std::to_string(B.Terminated) + "/" +
                 std::to_string(B.ExitCode));
  size_t N = std::min(Run.Trace.size(), Ref.Trace.size());
  for (size_t I = 0; I != N; ++I)
    if (Run.Trace[I] != Ref.Trace[I])
      return Error("FFI trace differs at event " + std::to_string(I) + ": " +
                   describe(Run.Trace[I]) + " vs " +
                   describe(Ref.Trace[I]));
  if (Run.Trace.size() > N || (!Oom && Ref.Trace.size() > N))
    return Error("FFI trace of " + std::to_string(Run.Trace.size()) +
                 " events vs " + std::to_string(Ref.Trace.size()) + After);
  return {};
}

Result<void> silver::stack::checkAgainstSpec(Level L, const Outcome &Run,
                                            const Outcome &Spec) {
  if (Result<void> C = compareBehaviour(Run, Spec, /*LicenseOom=*/true); !C)
    return Error(std::string(levelName(L)) + " vs spec: " + C.error().str());
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
    if (Result<void> C = checkAgainstSpec(L, *R, *SpecOut); !C)
      return C.error();
    Results.push_back(R->Behaviour);
  }
  return Results;
}
