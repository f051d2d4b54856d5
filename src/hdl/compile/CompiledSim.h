//===- hdl/compile/CompiledSim.h - Compiled simulator backend ---*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ahead-of-time compiled counterpart of FastSim: C++ generated for
/// the module (Codegen.h), stepped through its compiled entry point.
/// Exposes the same ModuleSim surface — slot handles, dense input
/// frames, cycle observer — so the Verilog execution level swaps
/// backends without touching its binding code.  The entry point is
/// either linked into the build (the Silver core: CompiledModule::link)
/// or built and dlopen'ed at run time (any other module:
/// CompiledModule::create over Build.h).
///
/// The compiled backend is generated code executing the verified design,
/// so it is only admissible alongside its differential harness: the
/// interpreter remains the reference, and compiled-vs-interpreted
/// agreement is a first-class fuzz level (DESIGN.md §14).
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_HDL_COMPILE_COMPILEDSIM_H
#define SILVER_HDL_COMPILE_COMPILEDSIM_H

#include "hdl/ModuleSim.h"
#include "hdl/compile/Build.h"

#include <memory>

namespace silver {
namespace hdl {

/// One module's compiled cycle function plus its layout.  Cheap to
/// share: instances hold their own state and reference the code.
class CompiledModule {
public:
  /// Generates, builds (or reuses the cached artifact), and loads the
  /// simulator for \p M.  Fails when no host compiler is usable.
  static Result<std::shared_ptr<CompiledModule>>
  create(const VModule &M, const BuildOptions &O = {});

  /// Wraps a generated unit for \p M that was compiled into the program:
  /// \p Cycle and \p LinkedHash are its silver_hdl_cycle and
  /// silver_hdl_design_hash().  Fails when \p LinkedHash is not the hash
  /// generateCpp computes for \p M, so a stale build never runs.
  static Result<std::shared_ptr<CompiledModule>>
  link(const VModule &M, CompiledCycleFn Cycle, uint64_t LinkedHash);

  const CompiledLayout &layout() const { return Layout; }
  uint64_t designHash() const { return DesignHash; }

private:
  friend class CompiledSim;
  CompiledModule(CompiledLayout L, CompiledCycleFn Entry, uint64_t Hash,
                 std::shared_ptr<LoadedModule> Code)
      : Layout(std::move(L)), Entry(Entry), DesignHash(Hash),
        Code(std::move(Code)) {}

  CompiledLayout Layout;
  CompiledCycleFn Entry;
  uint64_t DesignHash;
  /// Keeps a dlopen'ed unit loaded; null for a linked one.
  std::shared_ptr<LoadedModule> Code;
};

/// A single compiled instance behind the common ModuleSim surface.
class CompiledSim final : public ModuleSim {
public:
  /// Convenience: CompiledModule::create + instantiate.
  static Result<std::unique_ptr<CompiledSim>>
  compile(const VModule &M, const BuildOptions &O = {});
  /// One instance over an already-loaded module.
  explicit CompiledSim(std::shared_ptr<CompiledModule> M);
  ~CompiledSim() override;

  Result<void> stepDense(const uint64_t *Inputs, size_t Count) override;
  size_t numInputs() const override;
  const std::string &inputName(size_t Ordinal) const override;
  int slotOf(const std::string &Name) const override;
  int memSlotOf(const std::string &Name) const override;
  uint64_t valueOf(int Slot) const override;
  void setValue(int Slot, uint64_t Bits) override;
  const std::vector<uint64_t> &memOf(int MemSlot) const override;
  std::vector<uint64_t> &memOf(int MemSlot) override;
  void setCycleObserver(obs::Observer *O) override;
  SimState exportState(const VModule &M) const override;

  uint64_t designHash() const { return Module->designHash(); }

private:
  std::shared_ptr<CompiledModule> Module;
  std::vector<uint64_t> Values;
  std::vector<std::vector<uint64_t>> Mems;
  std::vector<uint64_t *> MemPtrs;
  obs::Observer *CycleObs = nullptr;
  uint64_t Cycle = 0;
};

} // namespace hdl
} // namespace silver

#endif // SILVER_HDL_COMPILE_COMPILEDSIM_H
