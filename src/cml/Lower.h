//===- cml/Lower.h - AST to Core lowering ----------------------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Lowers the type-checked AST to the Core IR: alpha-renames all binders,
/// compiles pattern matches to test trees, saturates (or eta-expands)
/// basis primitives, curries multi-parameter functions, and turns
/// top-level declarations into global slots evaluated by a single main
/// expression.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_CML_LOWER_H
#define SILVER_CML_LOWER_H

#include "cml/Ast.h"
#include "cml/Core.h"
#include "support/Result.h"

#include <map>
#include <span>
#include <string>
#include <vector>

namespace silver {
namespace cml {

/// A basis primitive at the source level: its Core kind and the number of
/// curried source arguments that saturate it.
struct PrimDesc {
  PrimKind Kind;
  unsigned SourceArity;
  bool DropUnitArg; ///< arg_count: consumes a unit argument, passes none
};

/// What a source name resolves to.
struct Binding {
  enum class Kind : uint8_t { Local, Global, Prim } K = Kind::Local;
  std::string LocalName; // Local
  unsigned Slot = 0;     // Global
  PrimDesc Prim{PrimKind::Add, 1, false};
};

/// Where lowering stands after some top-level declarations: the names in
/// scope, the fresh-name counter and the global slots handed out.
/// Lowering more declarations from it numbers names and slots exactly as
/// lowering all of them in one run would.
struct LowerState {
  std::map<std::string, Binding> Scope; ///< the primitives, initially
  unsigned NextId = 0;
  unsigned NextGlobal = 0;
  std::vector<std::string> GlobalNames;

  static LowerState initial();
};

/// Lowers \p Decs, which follow the declarations \p State has seen, and
/// advances \p State past them.  The result's Main evaluates \p Decs only;
/// its global count and names cover every declaration so far.
Result<CoreProgram> lowerDecs(LowerState &State, std::span<const Dec> Decs);

/// Lowers a type-checked program: lowerDecs from the initial state.
/// Assumes inferProgram succeeded (binding errors assert rather than
/// diagnose).
Result<CoreProgram> lowerProgram(const Program &Prog);

} // namespace cml
} // namespace silver

#endif // SILVER_CML_LOWER_H
