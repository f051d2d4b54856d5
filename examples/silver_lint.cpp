//===- examples/silver_lint.cpp - static verification front end ----------------===//
//
// The silver-lint tool runs the static-analysis subsystem:
//
//   silver-lint --hdl                  lint the generated Silver core Verilog
//   silver-lint prog.cml [...]         compile each program, build its
//                                      bare-metal image and run the
//                                      installed-image audit
//   silver-lint --hdl prog.cml         both
//   silver-lint --json ...             one JSON object on stdout
//
// All findings are reported in the unified analysis::Diagnostic shape
// (shared with silverc --analyze); each is an audit or lint rule
// violation.  Exit code 0 when every subject is free of diagnostics, 1
// on any diagnostic or build failure.
//
//===----------------------------------------------------------------------===//

#include "analysis/Diagnostic.h"
#include "analysis/ImageAudit.h"
#include "cpu/Core.h"
#include "hdl/Check.h"
#include "rtl/ToVerilog.h"
#include "stack/Stack.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace silver;

namespace {

int usage() {
  std::fprintf(stderr, "usage: silver-lint [--hdl] [--json] [FILE.cml ...]\n");
  return 1;
}

/// Prefixes \p Subject with the subject context (file name, "hdl").
void setSubject(analysis::Diagnostic &D, const std::string &Context) {
  D.Subject = D.Subject.empty() ? Context : Context + " " + D.Subject;
}

/// Lints the generated core module into \p Out; returns false on a
/// build failure (reported on stderr).
bool lintCoreHdl(std::vector<analysis::Diagnostic> &Out, bool Json) {
  cpu::SilverCore Core = cpu::buildSilverCore();
  Result<hdl::VModule> Module = rtl::toVerilog(Core.Circuit);
  if (!Module) {
    std::fprintf(stderr, "silver-lint: hdl: %s\n",
                 Module.error().str().c_str());
    return false;
  }
  std::vector<hdl::Finding> Findings = hdl::checkModule(*Module);
  for (const hdl::Finding &F : Findings) {
    analysis::Diagnostic D = analysis::toDiagnostic(F);
    setSubject(D, "hdl");
    Out.push_back(std::move(D));
  }
  if (!Json)
    std::fprintf(stderr,
                 "hdl: silver core (%zu decls, %zu processes): %zu "
                 "diagnostic(s)\n",
                 Module->Decls.size(), Module->Processes.size(),
                 Findings.size());
  return true;
}

/// Audits one compiled program's image into \p Out; returns false on a
/// compile/build failure.
bool auditProgram(const std::string &File,
                  std::vector<analysis::Diagnostic> &Out, bool Json) {
  std::ifstream In(File);
  if (!In) {
    std::fprintf(stderr, "silver-lint: cannot open '%s'\n", File.c_str());
    return false;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();

  stack::RunSpec Spec;
  Spec.Source = Buf.str();
  Spec.CommandLine = {File};
  Result<stack::Prepared> P = stack::prepare(Spec);
  if (!P) {
    std::fprintf(stderr, "silver-lint: %s: %s\n", File.c_str(),
                 P.error().str().c_str());
    return false;
  }
  Result<analysis::AuditReport> Report = stack::auditPrepared(*P);
  if (!Report) {
    std::fprintf(stderr, "silver-lint: %s: %s\n", File.c_str(),
                 Report.error().str().c_str());
    return false;
  }

  for (analysis::Diagnostic &D : Report->Diags) {
    setSubject(D, File);
    Out.push_back(std::move(D));
  }

  if (!Json) {
    size_t Reachable = 0;
    for (const analysis::RegionAnalysis *A :
         {&Report->Startup, &Report->Syscall, &Report->Program})
      for (size_t I = 0, E = A->G.Instrs.size(); I != E; ++I)
        if (A->instrReachable(I))
          ++Reachable;
    std::fprintf(stderr, "%s: %zu reachable instructions, %zu diagnostic(s)\n",
                 File.c_str(), Reachable, Report->Diags.size());
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Hdl = false;
  bool Json = false;
  std::vector<std::string> Files;
  for (int I = 1; I != Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--hdl")
      Hdl = true;
    else if (A == "--json")
      Json = true;
    else if (!A.empty() && A[0] == '-')
      return usage();
    else
      Files.push_back(A);
  }
  if (!Hdl && Files.empty())
    Hdl = true; // no subject given: lint the core

  std::vector<analysis::Diagnostic> Diags;
  bool BuildFailed = false;
  if (Hdl)
    BuildFailed |= !lintCoreHdl(Diags, Json);
  for (const std::string &File : Files)
    BuildFailed |= !auditProgram(File, Diags, Json);

  if (Json) {
    std::printf("{\"diagnostics\": %s}\n",
                analysis::diagnosticsJson(Diags).c_str());
  } else {
    for (const analysis::Diagnostic &D : Diags)
      std::printf("%s\n", analysis::formatDiagnostic(D).c_str());
  }

  return (Diags.empty() && !BuildFailed) ? 0 : 1;
}
