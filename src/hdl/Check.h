//===- hdl/Check.h - The checker of the Verilog subset ----------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one checker of the paper's Verilog subset (§3).  A single walk
/// over a VModule reports every violation with a rule, the offending
/// process index and a statement path; it does not stop at the first.
///
/// Five rules are the paper's vars_has_type and non-interference
/// obligations, which verilog_sem, FastSim and the generated C++ need:
/// undeclared, type-error, width-mismatch, input-write and multi-driver.
/// typeCheck fails on the first of those.  Four rules are stricter than
/// the semantics and only reported: blocking intermediates must be
/// written before they are read within their process (processes run over
/// cycle-start state, so such a read sees last cycle's leftover), a
/// variable is not both state and intermediate, blocking intermediates
/// are process-local, and constant memory indices are in range.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_HDL_CHECK_H
#define SILVER_HDL_CHECK_H

#include "hdl/Verilog.h"

#include <string>
#include <vector>

namespace silver {
namespace hdl {

/// Check rules.  Each corresponds to a side condition of the paper's
/// Verilog subset (§3) — see DESIGN.md §7 for the mapping.
enum class Rule : uint8_t {
  MultiDriver,          ///< variable written by two processes
  MixedAssign,          ///< same variable written blocking and non-blocking
  NonLocalIntermediate, ///< blocking intermediate read by another process
  ReadBeforeWrite,      ///< blocking intermediate read before assigned
  WidthMismatch,        ///< vector widths disagree (operator or assignment)
  Undeclared,           ///< read or write of an undeclared variable
  InputWrite,           ///< assignment to an input port
  MemBounds,            ///< constant memory index out of range
  TypeError,            ///< other type violation (kind mismatch, bad slice)
};

/// The stable string identifier of a rule (e.g. "hdl-multi-driver").
const char *ruleId(Rule R);

/// One violation.
struct Finding {
  Rule Kind = Rule::TypeError;
  int Process = -1;    ///< process index; -1 for module-level findings
  std::string Path;    ///< statement path, e.g. "body/s3/then/s0"
  std::string Message; ///< human-readable description
};

/// Renders "rule @ process N path: message".
std::string formatFinding(const Finding &F);

/// Checks \p M against every rule and returns every finding, in
/// deterministic order (module-level first, then by process and
/// statement position, then the cross-process rules).
std::vector<Finding> checkModule(const VModule &M);

/// The paper's vars_has_type obligation, the prerequisite of executing
/// \p M: fails with the first finding of the five rules the semantics
/// needs (see the file comment), formatted by formatFinding.
Result<void> typeCheck(const VModule &M);

} // namespace hdl
} // namespace silver

#endif // SILVER_HDL_CHECK_H
