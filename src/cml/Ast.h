//===- cml/Ast.h - MiniCake abstract syntax --------------------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Abstract syntax of MiniCake, the CakeML-flavoured source language of
/// this reproduction's compiler: a strict, typed, higher-order functional
/// language with let-polymorphism, curried functions, lists, pairs,
/// strings/chars, pattern matching, and the CakeML basis I/O functions
/// (print, input_all, arguments, exit ...) lowered to Silver FFI calls.
///
/// Deviations from CakeML (documented in DESIGN.md): integers are 31-bit
/// wrapping (no bignums), there are no user-defined datatypes, refs,
/// arrays or exceptions; partiality surfaces as trap exits (Div=3,
/// Match=4, Subscript=5) and heap exhaustion as the out-of-memory exit
/// the paper's extend_with_oom licenses.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_CML_AST_H
#define SILVER_CML_AST_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace silver {
namespace cml {

/// Source location for diagnostics.
struct Loc {
  int Line = 0;
  int Col = 0;
};

struct Pat;
struct Exp;
using PatPtr = std::unique_ptr<Pat>;
using ExpPtr = std::unique_ptr<Exp>;

/// Pattern kinds.
enum class PatKind : uint8_t {
  Wild,    ///< _
  Var,     ///< x
  IntLit,  ///< 42, ~3
  CharLit, ///< #"c"
  StrLit,  ///< "s"
  BoolLit, ///< true / false
  UnitLit, ///< ()
  Nil,     ///< []
  Cons,    ///< p1 :: p2
  Pair,    ///< (p1, p2)
};

struct Pat {
  PatKind Kind = PatKind::Wild;
  Loc Where;
  std::string Name;   // Var
  int32_t Int = 0;    // IntLit / CharLit / BoolLit(0/1)
  std::string Str;    // StrLit
  PatPtr Sub0, Sub1;  // Cons / Pair
};

/// Expression kinds.
enum class ExpKind : uint8_t {
  Var,
  IntLit,
  CharLit,
  StrLit,
  BoolLit,
  UnitLit,
  Nil,
  Fn,      ///< fn x => e
  App,     ///< e1 e2
  If,      ///< if c then t else f
  Case,    ///< case e of p1 => e1 | ...
  LetVal,  ///< let val x = e1 in e2  (one binding per node)
  LetFun,  ///< let fun f x.. = e1 (and g y.. = e2)* in body
  Pair,    ///< (e1, e2)
  AndAlso, ///< e1 andalso e2
  OrElse,  ///< e1 orelse e2
  Prim,    ///< binary operator application (+, -, ::, =, ^, ...)
};

/// Binary operators available in source syntax.  Named functions from the
/// basis (size, ord, print, ...) are plain Vars bound in the initial
/// environment.
enum class BinOp : uint8_t {
  Add,
  Sub,
  Mul,
  Div,
  Mod,
  Lt,
  Le,
  Gt,
  Ge,
  Eq,
  Neq,
  Concat, ///< ^
  Cons,   ///< ::
};

/// One arm of a case expression.
struct MatchArm {
  PatPtr Pattern;
  ExpPtr Body;
};

/// One function in a (possibly mutually recursive) fun group.
struct FunBind {
  Loc Where;
  std::string Name;
  std::vector<std::string> Params; ///< curried parameters (at least one)
  ExpPtr Body;
};

struct Exp {
  ExpKind Kind = ExpKind::UnitLit;
  Loc Where;
  std::string Name;  // Var / LetVal bound name / Fn parameter
  int32_t Int = 0;   // IntLit / CharLit / BoolLit(0/1)
  std::string Str;   // StrLit
  BinOp Op = BinOp::Add;
  ExpPtr E0, E1, E2; // children (If uses all three)
  std::vector<MatchArm> Arms;   // Case (scrutinee in E0)
  std::vector<FunBind> Funs;    // LetFun (body in E0)
};

/// Top-level declaration.
struct Dec {
  enum class Kind : uint8_t { Val, Fun } K = Kind::Val;
  Loc Where;
  std::string Name;          // Val
  ExpPtr Body;               // Val
  std::vector<FunBind> Funs; // Fun (mutually recursive via "and")
};

/// A parsed program: a sequence of top-level declarations.  The value of
/// the program is the effect of evaluating them in order.
struct Program {
  std::vector<Dec> Decs;
};

/// Deep copy of a declaration.
Dec cloneDec(const Dec &D);

} // namespace cml
} // namespace silver

#endif // SILVER_CML_AST_H
