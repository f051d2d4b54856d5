//===- hdl/Semantics.h - Operational semantics for the subset ---*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cycle-level operational semantics (the paper's verilog_sem): per
/// clock cycle, input ports are driven by the environment, every process
/// runs over the cycle-start state (blocking assignments become visible
/// to later statements of the same process; the paper's subset requires
/// processes to be non-interfering), and all non-blocking writes are
/// saved in a queue that is merged into the state at the end of the
/// cycle.  Type checking (vars_has_type, hdl::typeCheck in hdl/Check.h)
/// is a prerequisite of execution.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_HDL_SEMANTICS_H
#define SILVER_HDL_SEMANTICS_H

#include "hdl/Check.h"
#include "hdl/Verilog.h"

namespace silver {
namespace hdl {

/// Simulation state: variable environment keyed by name.
class SimState {
public:
  std::map<std::string, VValue> Vars;

  /// Initialises every declaration (and output port) of \p M to zero.
  static SimState init(const VModule &M);

  bool operator==(const SimState &O) const { return Vars == O.Vars; }
};

/// One clock cycle: \p Inputs maps every input port to its value for
/// this cycle.  Returns an error on dynamic failures (out-of-range memory
/// index; these are unreachable after typeCheck except for memories).
Result<void> stepCycle(const VModule &M, SimState &State,
                       const std::map<std::string, VValue> &Inputs);

/// Evaluates an expression in a state (exposed for tests).
Result<VValue> evalExp(const VExp &E, const SimState &State);

} // namespace hdl
} // namespace silver

#endif // SILVER_HDL_SEMANTICS_H
