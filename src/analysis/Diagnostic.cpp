//===- analysis/Diagnostic.cpp - Unified analysis diagnostics --------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "analysis/Diagnostic.h"

#include "support/StringUtils.h"

using namespace silver;
using namespace silver::analysis;

std::string silver::analysis::formatDiagnostic(const Diagnostic &D) {
  std::string Out = "error: ";
  Out += D.Id;
  if (!D.Subject.empty() || D.HasAddr) {
    Out += " @";
    if (!D.Subject.empty()) {
      Out += ' ';
      Out += D.Subject;
    }
    if (D.HasAddr) {
      Out += ' ';
      Out += toHex(D.Addr);
    }
  }
  Out += ": ";
  Out += D.Message;
  return Out;
}

std::string silver::analysis::diagnosticJson(const Diagnostic &D) {
  std::string Out = "{\"id\":";
  Out += jsonQuote(D.Id);
  Out += ",\"severity\":\"error\"";
  if (!D.Subject.empty()) {
    Out += ",\"subject\":";
    Out += jsonQuote(D.Subject);
  }
  if (D.HasAddr) {
    Out += ",\"addr\":";
    Out += jsonQuote(toHex(D.Addr));
  }
  Out += ",\"message\":";
  Out += jsonQuote(D.Message);
  Out += '}';
  return Out;
}

std::string
silver::analysis::diagnosticsJson(const std::vector<Diagnostic> &Diags) {
  std::string Out = "[";
  for (size_t I = 0; I != Diags.size(); ++I) {
    Out += I ? ",\n " : "\n ";
    Out += diagnosticJson(Diags[I]);
  }
  Out += Diags.empty() ? "]" : "\n]";
  return Out;
}

Diagnostic silver::analysis::toDiagnostic(const AuditDiag &D) {
  Diagnostic Out;
  Out.Id = auditRuleId(D.Rule);
  if (D.HasRegion) {
    Out.Subject = regionName(D.Region);
    Out.HasAddr = true;
    Out.Addr = D.Addr;
  }
  Out.Message = D.Message;
  return Out;
}

Diagnostic silver::analysis::toDiagnostic(const LintDiag &D) {
  Diagnostic Out;
  Out.Id = lintRuleId(D.Rule);
  if (D.Process >= 0) {
    Out.Subject = "process " + std::to_string(D.Process);
    if (!D.Path.empty())
      Out.Subject += ' ' + D.Path;
  } else if (!D.Path.empty()) {
    Out.Subject = D.Path;
  }
  Out.Message = D.Message;
  return Out;
}

std::vector<Diagnostic>
silver::analysis::toDiagnostics(const std::vector<AuditDiag> &Diags) {
  std::vector<Diagnostic> Out;
  Out.reserve(Diags.size());
  for (const AuditDiag &D : Diags)
    Out.push_back(toDiagnostic(D));
  return Out;
}

std::vector<Diagnostic>
silver::analysis::toDiagnostics(const std::vector<LintDiag> &Diags) {
  std::vector<Diagnostic> Out;
  Out.reserve(Diags.size());
  for (const LintDiag &D : Diags)
    Out.push_back(toDiagnostic(D));
  return Out;
}
