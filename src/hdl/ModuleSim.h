//===- hdl/ModuleSim.h - Common module-simulator interface ------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract surface shared by every whole-module simulator for the
/// Verilog subset: FastSim, which runs the module as a flat instruction
/// tape (FastSim.h), and the ahead-of-time compiled backend
/// (compile/CompiledSim.h).  Clients that bind slots once and then step
/// cycles — the Verilog execution level of the stack, the layer
/// benchmarks, the differential tests — are written against this
/// interface, so swapping the backend never changes the binding code.
///
/// The contract is FastSim's: slots are stable integer handles resolved
/// by name once, stepDense takes one masked value per input port in
/// declaration order, and setCycleObserver ticks obs::Observer::onCycle
/// once per cycle.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_HDL_MODULESIM_H
#define SILVER_HDL_MODULESIM_H

#include "hdl/Semantics.h"
#include "obs/Observer.h"

#include <string>
#include <vector>

namespace silver {
namespace hdl {

class ModuleSim {
public:
  virtual ~ModuleSim();

  /// One clock cycle; \p Inputs holds one value per input port in port
  /// declaration order (see numInputs / inputName).
  virtual Result<void> stepDense(const uint64_t *Inputs, size_t Count) = 0;

  /// Number of input ports (the stepDense frame size).
  virtual size_t numInputs() const = 0;
  /// Name of input port \p Ordinal (stepDense frame order).
  virtual const std::string &inputName(size_t Ordinal) const = 0;

  /// Slot handle of a scalar (bool/vec) variable, or -1 when unknown.
  /// Slots are stable for the lifetime of the simulator; resolve once,
  /// then use the indexed accessors below on hot paths.
  virtual int slotOf(const std::string &Name) const = 0;
  /// Memory handle of a memory variable, or -1 when unknown.
  virtual int memSlotOf(const std::string &Name) const = 0;
  /// Current bits of a scalar slot; setValue writes (masks) them, for
  /// priming architectural state.
  virtual uint64_t valueOf(int Slot) const = 0;
  virtual void setValue(int Slot, uint64_t Bits) = 0;
  /// Contents of a memory slot (mutable for priming).
  virtual const std::vector<uint64_t> &memOf(int MemSlot) const = 0;
  virtual std::vector<uint64_t> &memOf(int MemSlot) = 0;

  /// Ticks obs::Observer::onCycle once per step.  Null detaches; not
  /// owned.
  virtual void setCycleObserver(obs::Observer *O) = 0;

  /// Exports the state in reference-simulator form (for the agreement
  /// tests against hdl::stepCycle).
  virtual SimState exportState(const VModule &M) const = 0;
};

} // namespace hdl
} // namespace silver

#endif // SILVER_HDL_MODULESIM_H
