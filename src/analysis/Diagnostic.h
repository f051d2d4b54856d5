//===- analysis/Diagnostic.h - Unified analysis diagnostics ----*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One diagnostic shape for every static analysis in the tree.  The image
/// audit (ImageAudit.h) and the Verilog linter (VerilogLint.h) each have
/// their own internal diagnostic structs tuned to what they check; this
/// module converts both to a single `Diagnostic` with a stable rule
/// identifier and an optional subject (code region, HDL process) and
/// address — so silver-lint and silverc --analyze print and serialise
/// them identically, and their `--json` outputs are parsed by one schema.
/// Every diagnostic is an error: it fails the producing tool.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_ANALYSIS_DIAGNOSTIC_H
#define SILVER_ANALYSIS_DIAGNOSTIC_H

#include "analysis/ImageAudit.h"
#include "analysis/VerilogLint.h"

#include <string>
#include <vector>

namespace silver {
namespace analysis {

/// One analysis finding in the unified shape.
struct Diagnostic {
  std::string Id;       ///< stable rule id, e.g. "img-layout"
  std::string Subject;  ///< region/process/app context ("" when none)
  bool HasAddr = false;
  Word Addr = 0;        ///< offending address (when HasAddr)
  std::string Message;
};

/// Renders "error: id @ subject 0xADDR: message" (parts omitted when
/// absent), the one human-readable line format of both front ends.
std::string formatDiagnostic(const Diagnostic &D);

/// Serialises one diagnostic as a JSON object (stable key order:
/// id, severity, subject, addr, message; subject/addr omitted as absent;
/// severity is always "error").
std::string diagnosticJson(const Diagnostic &D);

/// Serialises a list as a JSON array, one object per line.
std::string diagnosticsJson(const std::vector<Diagnostic> &Diags);

/// Conversions from the per-analysis diagnostic structs.
Diagnostic toDiagnostic(const AuditDiag &D);
Diagnostic toDiagnostic(const LintDiag &D);

std::vector<Diagnostic> toDiagnostics(const std::vector<AuditDiag> &Diags);
std::vector<Diagnostic> toDiagnostics(const std::vector<LintDiag> &Diags);

} // namespace analysis
} // namespace silver

#endif // SILVER_ANALYSIS_DIAGNOSTIC_H
