//===- hdl/compile/Codegen.h - Verilog-to-C++ code generator ----*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates a self-contained C++ translation unit that steps one clock
/// cycle of a type-checked module of the Verilog subset — the Verilator
/// move, but against a subset with a reference semantics (Semantics.h)
/// so the output can be differentially tested instead of trusted.
///
/// The emitted unit exports a tiny C ABI (one cycle function plus two
/// identity checks), and the slot layout of the generated state vector
/// is planned here, on the host side, in exactly the order FastSim
/// assigns slots — so the host binds names to indices without ever
/// parsing the generated code.
///
/// Compilation scheme (DESIGN.md §14): the statement language has no
/// loops, so every static assignment executes at most once per cycle.
/// Each non-blocking assignment / memory write compiles to a latch local
/// (value + executed flag) committed at the end of the cycle in program
/// order — a static unrolling of the reference semantics' event queue.
/// Blocking assignments in a multi-process module write a per-process
/// shadow (later processes must still read cycle-start state) and commit
/// from their latch locals first, as FastSim's tape does with its shadow
/// slots; a single-process module (the rtl-generated core) writes through
/// directly.  A memory read out of range sets a flag that fails the
/// cycle before the commit section runs.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_HDL_COMPILE_CODEGEN_H
#define SILVER_HDL_COMPILE_CODEGEN_H

#include "hdl/Verilog.h"
#include "support/Result.h"

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace silver {
namespace hdl {

/// Host-side plan of the generated state vector.  Slot numbering is
/// identical to FastSim's (ports in declaration order, then decls), so a
/// slot resolved against either backend means the same variable.
struct CompiledLayout {
  std::map<std::string, int> ScalarSlots; ///< bool/vec name -> slot
  std::map<std::string, int> MemSlots;    ///< memory name -> memory id
  std::vector<unsigned> SlotWidths;       ///< per slot; 0 = bool
  std::vector<unsigned> MemWidths;        ///< per memory id
  std::vector<size_t> MemDepths;          ///< per memory id
  /// Input ports in declaration order: (name, slot).  The stepDense
  /// frame order, exactly as FastSim::inputName exposes it.
  std::vector<std::pair<std::string, int>> InputSlots;
};

/// One generated translation unit plus the layout needed to drive it.
struct GeneratedModule {
  CompiledLayout Layout;
  std::string Source;      ///< the C++ translation unit
  uint64_t DesignHash = 0; ///< fnv1a64 of Source; cache key + runtime check
};

/// The exported C ABI of a generated unit.  Bumped whenever the symbol
/// contract below changes; the loader refuses a mismatch.
constexpr uint32_t CompiledAbiVersion = 3;

/// Exported symbols: `silver_hdl_abi_version()` returns
/// CompiledAbiVersion; `silver_hdl_design_hash()` returns DesignHash;
/// `silver_hdl_cycle(V, M)` steps one cycle over the scalar state vector
/// V (slot s at V[s]) and the memory table M (element e of memory m at
/// M[m][e]), returning 0 on success, 1 when a memory write went out of
/// range, and 2, before committing anything, when a memory read did.
/// The unit is either linked into the build (the Silver core,
/// cpu/Sim.cpp) or built and dlopen'ed at run time (Build.h).
using CompiledCycleFn = int (*)(uint64_t *V, uint64_t *const *M);

/// Generates the translation unit for \p M; fails when typeCheck fails.
Result<GeneratedModule> generateCpp(const VModule &M);

} // namespace hdl
} // namespace silver

#endif // SILVER_HDL_COMPILE_CODEGEN_H
