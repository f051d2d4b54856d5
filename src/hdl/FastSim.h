//===- hdl/FastSim.h - Tape interpreter for the subset ----------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compiled simulator for the Verilog subset: lowers a type-checked
/// module once into the flat three-address tape of Tape.h, then steps
/// cycles by running that tape in one `switch` loop over the slot array,
/// with no name lookups, no recursion and no per-cycle allocation.  It is
/// the Verilator to Semantics.h's event-driven reference.  Tests check it
/// cycle-for-cycle against hdl::stepCycle; the Verilog execution level
/// of the stack runs on it.  The state, the layout and every accessor
/// are ModuleSim's; FastSim supplies only the cycle.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_HDL_FASTSIM_H
#define SILVER_HDL_FASTSIM_H

#include "hdl/ModuleSim.h"

#include <memory>

namespace silver {
namespace hdl {

class FastSim final : public ModuleSim {
public:
  /// Lowers \p M; fails when typeCheck fails.
  static Result<std::unique_ptr<FastSim>> compile(const VModule &M);

private:
  explicit FastSim(Tape T);
  int cycle() override;

  std::vector<Instr> Code;
  std::vector<uint32_t> Flags;
};

} // namespace hdl
} // namespace silver

#endif // SILVER_HDL_FASTSIM_H
