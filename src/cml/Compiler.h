//===- cml/Compiler.h - The MiniCake compiler driver ------------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compiler driver: the reproduction's analogue of the paper's
/// `compile confAg prog = Some compiled_prog` (theorem (3)), where `prog`
/// includes the basis prelude.  Pipeline: parse -> type-check -> lower ->
/// optimise -> flatten (ANF + closure conversion) -> code generation ->
/// assembly, at the CodeBase the memory layout (paper Fig. 2) derives
/// from the program's size.
///
/// Every pass runs over the prelude once per process and saves its state
/// after it (per OptOptions value from the optimiser on); a program's
/// declarations resume each pass from that state.  The entry stub, the
/// runtime and the prelude's functions are laid out and encoded once as
/// a fragment at the start of every image.  The output is byte for byte
/// what the passes give over the prelude and the program together.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_CML_COMPILER_H
#define SILVER_CML_COMPILER_H

#include "cml/Ast.h"
#include "cml/Opt.h"
#include "cml/Types.h"
#include "support/Result.h"
#include "sys/Layout.h"

#include <cstdint>
#include <map>
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

/// Parses \p Source and returns a copy of the basis prelude's
/// declarations (parsed once per process) followed by the program's: the
/// program every compiler, interpreter and tool runs.  Positions in
/// errors are the source's own lines and columns.
Result<Program> parseWithPrelude(const std::string &Source);

/// Type-checks a program from parseWithPrelude: the declarations after
/// the prelude's, against the environment the prelude leaves (checked
/// once per process).  Returns the types of every top-level binding, as
/// inferProgram does.
Result<std::map<std::string, Scheme>> inferWithPrelude(const Program &Prog);

/// The prelude and \p Source as one text.  Positions in it are shifted
/// by the prelude's lines; perfbench's oneshot workload times the whole
/// pipeline's passes over it.
std::string withPrelude(const std::string &Source);

} // namespace cml
} // namespace silver

#endif // SILVER_CML_COMPILER_H
