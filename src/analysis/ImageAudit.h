//===- analysis/ImageAudit.h - Static audit of bootable images -*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A static, executable approximation of the paper's `installed`
/// predicate (§5) over a built sys::MemoryImage.  Where
/// sys::validateInstalled inspects a post-startup *dynamic* machine
/// state, the audit inspects the image itself, before any instruction
/// runs:
///
///   - the Fig. 2 regions are word-aligned, ordered, and non-overlapping
///     (installed (ii)/(iii));
///   - every machine instruction reachable from the startup, syscall, and
///     program entry points decodes (installed (iv): "code in memory");
///   - every reachable static or constant-resolvable jump/call lands in a
///     code region, and cross-region transfers hit that region's sole
///     entry point (installed (i): r3 addresses the FFI entry);
///   - no reachable store with a constant-resolvable address targets
///     reachable instruction bytes — a static W^X discipline;
///   - the syscall code's register-def summary stays inside the clobber
///     set permitted to the interference oracle (installed (v), checked
///     dynamically by machine::checkInterferenceImpl).
///
/// Reachability and address resolution come from analysis/Cfg.h and
/// analysis/Dataflow.h; the audit is conservative in the usual static
/// sense — it validates everything it can resolve and stays silent on
/// register-indirect transfers it cannot (closure calls, returns).
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_ANALYSIS_IMAGEAUDIT_H
#define SILVER_ANALYSIS_IMAGEAUDIT_H

#include "analysis/Dataflow.h"
#include "sys/Image.h"

#include <string>
#include <vector>

namespace silver {
namespace analysis {

/// Audit rule identifiers; see DESIGN.md for the paper-side-condition map.
enum class AuditRule : uint8_t {
  Layout,         ///< regions misplaced, misaligned, or overlapping
  Decode,         ///< a reachable instruction does not decode
  JumpTarget,     ///< a resolvable transfer leaves the code regions
  WriteToCode,    ///< a resolvable store targets instruction bytes (W^X)
  SyscallClobber, ///< syscall code writes outside its permitted set
};

/// The stable string identifier of a rule (e.g. "img-layout").
const char *auditRuleId(AuditRule R);

/// The three code regions of Fig. 2.
enum class CodeRegion : uint8_t { Startup, Syscall, Program };

const char *regionName(CodeRegion R);

/// One diagnostic.
struct AuditDiag {
  AuditRule Rule = AuditRule::Layout;
  CodeRegion Region = CodeRegion::Startup;
  bool HasRegion = false; ///< false for image-level (layout) diagnostics
  Word Addr = 0;          ///< offending instruction address (when HasRegion)
  std::string Message;
};

/// Renders "rule @ region addr: message".
std::string formatDiag(const AuditDiag &D);

/// The audit result: diagnostics plus the per-region analyses, exposed so
/// callers (the silver-lint tool, tests) can report coverage statistics.
struct AuditReport {
  std::vector<AuditDiag> Diags;
  sys::MemoryLayout Layout; ///< the audited image's layout
  RegionAnalysis Startup;
  RegionAnalysis Syscall;
  RegionAnalysis Program;
  RegSummary SyscallSummary; ///< def/use over the reachable syscall code

  bool ok() const { return Diags.empty(); }
};

/// Audits \p Image.  \p ProgramSize bounds the program region's decoded
/// extent (bytes from CodeBase); pass the built program's size, or 0 to
/// decode up to the end of memory.
AuditReport auditImage(const sys::MemoryImage &Image, Word ProgramSize = 0);

} // namespace analysis
} // namespace silver

#endif // SILVER_ANALYSIS_IMAGEAUDIT_H
