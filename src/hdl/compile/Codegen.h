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
/// The generator is a printer: it lowers the module with lowerModule
/// (Tape.h), the lowering FastSim runs, and prints the tape one C++
/// statement per instruction.  Named slots become `V[s]`, constant slots
/// literals, and temporaries, latches, shadows and flags locals; the
/// forward jumps of `if` and lazy `?:` become `goto`.  So the two
/// backends share every rule of the lowering — shadows, latches, commit
/// order, laziness, checked reads — and the layout, through which the
/// host binds names without ever parsing the generated code.
///
/// The emitted unit exports a tiny C ABI: one cycle function plus two
/// identity checks.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_HDL_COMPILE_CODEGEN_H
#define SILVER_HDL_COMPILE_CODEGEN_H

#include "hdl/Tape.h"
#include "support/Result.h"

#include <string>

namespace silver {
namespace hdl {

/// One generated translation unit plus the layout needed to drive it.
struct GeneratedModule {
  CompiledLayout Layout;
  std::string Source;      ///< the C++ translation unit
  uint64_t DesignHash = 0; ///< fnv1a64 of Source; cache key + runtime check
};

/// The exported C ABI of a generated unit.  Bumped whenever the symbol
/// contract below changes; the loader refuses a mismatch.
constexpr uint32_t CompiledAbiVersion = 4;

/// Exported symbols: `silver_hdl_abi_version()` returns
/// CompiledAbiVersion; `silver_hdl_design_hash()` returns DesignHash;
/// `silver_hdl_cycle(V, M)` steps one cycle over the scalar state vector
/// V (slot s at V[s]) and the memory table M (element e of memory m at
/// M[m][e]), returning 0 on success and, when an access to memory m went
/// out of range, its memFault code (Tape.h): 2m+1 for a read, before
/// committing anything, and 2m+2 for a write.
/// The unit is either linked into the build (the Silver core,
/// cpu/Sim.cpp) or built and dlopen'ed at run time (Build.h).
using CompiledCycleFn = int (*)(uint64_t *V, uint64_t *const *M);

/// Generates the translation unit for \p M; fails when typeCheck fails.
Result<GeneratedModule> generateCpp(const VModule &M);

} // namespace hdl
} // namespace silver

#endif // SILVER_HDL_COMPILE_CODEGEN_H
