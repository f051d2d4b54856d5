//===- hdl/FastSim.h - Compiled simulator for the subset --------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A compiled simulator for the Verilog subset: elaborates a type-checked
/// module once into a flat three-address tape over a slot array, then
/// steps cycles by running that tape in one `switch` loop, with no name
/// lookups, no recursion and no per-cycle allocation.  It is the
/// Verilator to Semantics.h's event-driven reference.  Tests check it
/// cycle-for-cycle against hdl::stepCycle; the Verilog execution level
/// of the stack runs on it.
///
/// The tape is the reference semantics unrolled at compile time, the
/// same scheme the C++ generator uses (compile/Codegen.h):
///  - every expression node is one instruction; constants sit in
///    preloaded slots and temporaries after the named slots, so the slot
///    numbering is the CompiledLayout one;
///  - an `if`, and a `?:` whose arms compute, is a forward jump, so
///    evaluation is lazy as in the reference;
///  - a process followed by others keeps its blocking writes in shadow
///    slots, so later processes read the cycle-start state; the last
///    process writes through;
///  - non-blocking and memory writes fill latch slots that a commit
///    section at the end of the tape applies in program order.
/// A memory access out of range is an error, as in the reference.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_HDL_FASTSIM_H
#define SILVER_HDL_FASTSIM_H

#include "hdl/ModuleSim.h"
#include "hdl/Semantics.h"
#include "obs/Observer.h"

#include <memory>

namespace silver {
namespace hdl {

class FastSim final : public ModuleSim {
public:
  /// Elaborates \p M; fails when typeCheck fails.
  static Result<std::unique_ptr<FastSim>> compile(const VModule &M);
  ~FastSim() override;

  /// One clock cycle; \p Inputs holds one value per input port in port
  /// declaration order (see numInputs / inputName).  This is the hot
  /// path: no name lookups, no per-cycle allocation.  Fails on a memory
  /// access out of range.
  Result<void> stepDense(const uint64_t *Inputs, size_t Count) override;

  /// Number of input ports (the stepDense frame size).
  size_t numInputs() const override;
  /// Name of input port \p Ordinal (stepDense frame order).
  const std::string &inputName(size_t Ordinal) const override;

  /// Slot handle of a scalar (bool/vec) variable, or -1 when unknown.
  /// Slots are stable for the lifetime of the simulator; resolve once,
  /// then use the indexed accessors below on hot paths.
  int slotOf(const std::string &Name) const override;
  /// Memory handle of a memory variable, or -1 when unknown.
  int memSlotOf(const std::string &Name) const override;
  /// Slot accessors (see ModuleSim).
  uint64_t valueOf(int Slot) const override;
  void setValue(int Slot, uint64_t Bits) override;
  const std::vector<uint64_t> &memOf(int MemSlot) const override;
  std::vector<uint64_t> &memOf(int MemSlot) override;

  /// Ticks obs::Observer::onCycle once per step (the Verilog level's
  /// clock source for the unified trace/counter subsystem).  Null
  /// detaches; not owned.
  void setCycleObserver(obs::Observer *O) override;

  /// Exports the state in reference-simulator form (for the agreement
  /// tests against hdl::stepCycle).
  SimState exportState(const VModule &M) const override;

  struct Impl;

private:
  FastSim();
  std::unique_ptr<Impl> I;
};

} // namespace hdl
} // namespace silver

#endif // SILVER_HDL_FASTSIM_H
