//===- hdl/compile/CompiledSim.h - Compiled simulator backend ---*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ahead-of-time compiled counterpart of FastSim: the module's tape
/// printed as C++ (Codegen.h), stepped through its compiled entry point.
/// The state, the layout and every accessor are ModuleSim's, so the
/// Verilog execution level swaps backends without touching its binding
/// code; CompiledSim supplies only the cycle.  The entry point is
/// either linked into the build (the Silver core: CompiledModule::link)
/// or built and dlopen'ed at run time (any other module:
/// CompiledModule::create over Build.h).
///
/// The compiled backend is generated code executing the verified design,
/// so it is only admissible alongside its differential harness: the
/// interpreter remains the reference, and compiled-vs-interpreted
/// agreement is a first-class fuzz run (DESIGN.md §14).
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

  const CompiledLayout &layout() const { return *Layout; }
  uint64_t designHash() const { return DesignHash; }

private:
  friend class CompiledSim;
  CompiledModule(CompiledLayout L, CompiledCycleFn Entry, uint64_t Hash,
                 std::shared_ptr<LoadedModule> Code)
      : Layout(std::make_shared<const CompiledLayout>(std::move(L))),
        Entry(Entry), DesignHash(Hash), Code(std::move(Code)) {}

  std::shared_ptr<const CompiledLayout> Layout;
  CompiledCycleFn Entry;
  uint64_t DesignHash;
  /// Keeps a dlopen'ed unit loaded; null for a linked one.
  std::shared_ptr<LoadedModule> Code;
};

/// A single compiled instance: ModuleSim's state, stepped by the
/// module's compiled cycle function.
class CompiledSim final : public ModuleSim {
public:
  /// Convenience: CompiledModule::create + instantiate.
  static Result<std::unique_ptr<CompiledSim>>
  compile(const VModule &M, const BuildOptions &O = {});
  /// One instance over an already-loaded module.
  explicit CompiledSim(std::shared_ptr<CompiledModule> M);

  uint64_t designHash() const { return Module->designHash(); }

private:
  int cycle() override { return Module->Entry(Slots.data(), MemPtrs.data()); }

  std::shared_ptr<CompiledModule> Module;
  std::vector<uint64_t *> MemPtrs;
};

} // namespace hdl
} // namespace silver

#endif // SILVER_HDL_COMPILE_COMPILEDSIM_H
