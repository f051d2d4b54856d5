//===- cml/Infer.h - Hindley-Milner type inference --------------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Algorithm-W-style type inference for MiniCake with level-based
/// let-polymorphism.  `=`/`<>` are checked post hoc to be used only at
/// equality types (no function type inside).  The initial environment
/// binds the compiler primitives (see primitiveSchemes), and the prelude
/// (cml/Prelude.h) provides the rest of the basis.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_CML_INFER_H
#define SILVER_CML_INFER_H

#include "cml/Ast.h"
#include "cml/Types.h"
#include "support/Result.h"

#include <map>
#include <span>
#include <string>

namespace silver {
namespace cml {

/// Description of a compiler primitive: its arity at the Flat IR level
/// and its type scheme.
struct PrimitiveInfo {
  unsigned Arity = 1;
  Scheme TypeScheme;
};

/// The primitives every MiniCake program may use: string operations,
/// character conversions, the I/O hooks lowered to Silver FFI calls, and
/// exit.  Keyed by source-level name.
const std::map<std::string, PrimitiveInfo> &primitiveSchemes();

/// Where type checking stands after some top-level declarations: the
/// environment, their types, and the type-variable counter (it numbers
/// the variables that errors print).
struct InferState {
  std::map<std::string, Scheme> Env; ///< the primitives, initially
  std::map<std::string, Scheme> TopTypes;
  int NextVarId = 0;

  static InferState initial();
};

/// Type-checks \p Decs, which follow the declarations \p State has seen.
/// On success advances \p State past them and returns the types of every
/// top-level binding so far; on failure returns a located error and
/// leaves \p State unusable.
Result<std::map<std::string, Scheme>> inferDecs(InferState &State,
                                                std::span<const Dec> Decs);

/// Type-checks a whole program: inferDecs from the initial state.
Result<std::map<std::string, Scheme>> inferProgram(const Program &Prog);

} // namespace cml
} // namespace silver

#endif // SILVER_CML_INFER_H
