//===- hdl/ModuleSim.h - Common module-simulator state ----------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The state and surface shared by every whole-module simulator for the
/// Verilog subset.  A ModuleSim holds the layout of the lowered module
/// (Tape.h), the slot vector, the memories, the cycle observer and
/// counter; it masks the inputs into their slots, exports the state and
/// words the errors.  A backend supplies only the cycle: FastSim runs
/// the tape (FastSim.h), and the compiled backend calls the C++ the
/// generator printed from it (compile/CompiledSim.h).  Clients that bind
/// slots once and then step cycles — the Verilog execution level of the
/// stack, the layer benchmarks, the differential tests — are written
/// against this class, so swapping the backend never changes the binding
/// code.
///
/// Slots are stable integer handles resolved by name once, stepDense
/// takes one masked value per input port in declaration order, and
/// setCycleObserver ticks obs::Observer::onCycle once per cycle.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_HDL_MODULESIM_H
#define SILVER_HDL_MODULESIM_H

#include "hdl/Semantics.h"
#include "hdl/Tape.h"
#include "obs/Observer.h"

#include <memory>
#include <string>
#include <vector>

namespace silver {
namespace hdl {

class ModuleSim {
public:
  virtual ~ModuleSim();
  ModuleSim(const ModuleSim &) = delete;
  ModuleSim &operator=(const ModuleSim &) = delete;

  /// One clock cycle; \p Inputs holds one value per input port in port
  /// declaration order (see numInputs / inputName).  This is the hot
  /// path: no name lookups, no per-cycle allocation.  Fails on a memory
  /// access out of range, with nothing of the cycle committed but the
  /// writes the reference commits too.
  Result<void> stepDense(const uint64_t *Inputs, size_t Count);

  /// Number of input ports (the stepDense frame size).
  size_t numInputs() const { return Layout->InputSlots.size(); }
  /// Name of input port \p Ordinal (stepDense frame order).
  const std::string &inputName(size_t Ordinal) const;

  /// Slot handle of a scalar (bool/vec) variable, or -1 when unknown.
  /// Slots are stable for the lifetime of the simulator; resolve once,
  /// then use the indexed accessors below on hot paths.
  int slotOf(const std::string &Name) const;
  /// Memory handle of a memory variable, or -1 when unknown.
  int memSlotOf(const std::string &Name) const;
  /// Current bits of a scalar slot; setValue writes (masks) them, for
  /// priming architectural state.
  uint64_t valueOf(int Slot) const;
  void setValue(int Slot, uint64_t Bits);
  /// Contents of a memory slot (mutable for priming; not resizable).
  const std::vector<uint64_t> &memOf(int MemSlot) const;
  std::vector<uint64_t> &memOf(int MemSlot);

  /// Ticks obs::Observer::onCycle once per step.  Null detaches; not
  /// owned.
  void setCycleObserver(obs::Observer *O) { CycleObs = O; }

  /// Exports the state in reference-simulator form (for the agreement
  /// tests against hdl::stepCycle).
  SimState exportState(const VModule &M) const;

protected:
  /// \p Slots starts with the named slots of \p Layout; the memories
  /// start zeroed.
  ModuleSim(std::shared_ptr<const CompiledLayout> Layout,
            std::vector<uint64_t> Slots);

  /// Runs one cycle over Slots and Mems, the inputs already in their
  /// slots.  Returns 0, or the memFault code of the access that failed.
  virtual int cycle() = 0;

  std::shared_ptr<const CompiledLayout> Layout;
  std::vector<uint64_t> Slots;
  std::vector<std::vector<uint64_t>> Mems;

private:
  obs::Observer *CycleObs = nullptr;
  uint64_t Cycle = 0;
};

} // namespace hdl
} // namespace silver

#endif // SILVER_HDL_MODULESIM_H
