//===- cml/Compiler.h - The MiniCake compiler driver ------------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiler driver: the reproduction's analogue of the paper's
/// `compile confAg prog = Some compiled_prog` (theorem (3)).  Pipeline:
/// parse -> type-check -> lower -> optimise -> flatten (ANF + closure
/// conversion) -> code generation -> assembly.  The program is assembled
/// twice: once at address 0 to learn its size, then at the CodeBase the
/// memory layout (paper Fig. 2) derives from that size.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_CML_COMPILER_H
#define SILVER_CML_COMPILER_H

#include "cml/Ast.h"
#include "cml/Opt.h"
#include "support/Result.h"
#include "sys/Layout.h"

#include <cstdint>
#include <string>
#include <vector>

namespace silver {
namespace cml {

struct CompileOptions {
  OptOptions Opt = OptOptions::all();
  sys::LayoutParams Layout; ///< determines memory size and CodeBase
};

struct Compiled {
  std::vector<uint8_t> Program; ///< code+data to load at Layout CodeBase
  Word CodeBase = 0;            ///< where the bytes were linked
  OptStats Stats;               ///< optimiser statistics
  unsigned NumFunctions = 0;    ///< Flat functions (excluding main)
  unsigned NumGlobals = 0;
};

/// Compiles MiniCake source, with the basis prelude prepended, to a
/// Silver program image fragment.
Result<Compiled> compileProgram(const std::string &Source,
                                const CompileOptions &Options = {});

/// Parses the basis prelude and \p Source separately and returns the
/// prelude's declarations followed by the program's: the program every
/// compiler, interpreter and tool runs.  Positions in errors are the
/// source's own lines and columns.
Result<Program> parseWithPrelude(const std::string &Source);

/// The prelude and \p Source as one text.  Positions in it are shifted
/// by the prelude's lines; perfbench's oneshot workload times the parse
/// pass over it.
std::string withPrelude(const std::string &Source);

} // namespace cml
} // namespace silver

#endif // SILVER_CML_COMPILER_H
