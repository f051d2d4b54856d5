//===- cml/Flat.h - First-order A-normal IR --------------------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Flat IR: the result of A-normalisation and closure conversion.
/// Programs are a set of first-order functions (each taking a closure and
/// one argument) plus a main body.  Control flow is tail-structured: a
/// body is a tree of lets and ifs ending in a return or a tail call, so
/// liveness is computable by one backward pass and tail calls compile to
/// jumps (proper TCO — accumulator loops run in constant stack).
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_CML_FLAT_H
#define SILVER_CML_FLAT_H

#include "cml/Core.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace silver {
namespace cml {

/// Atomic values: variables and constants.
struct Atom {
  enum class Kind : uint8_t { Var, Int, Str, Nil } K = Kind::Int;
  std::string Var;
  int32_t Int = 0;     ///< Int: 31-bit source value (tagging is codegen's)
  unsigned StrIdx = 0; ///< Str: index into FlatProgram::StringPool

  static Atom var(std::string Name) {
    Atom A;
    A.K = Kind::Var;
    A.Var = std::move(Name);
    return A;
  }
  static Atom intConst(int32_t V) {
    Atom A;
    A.K = Kind::Int;
    A.Int = V;
    return A;
  }
  static Atom strConst(unsigned Idx) {
    Atom A;
    A.K = Kind::Str;
    A.StrIdx = Idx;
    return A;
  }
  static Atom nil() {
    Atom A;
    A.K = Kind::Nil;
    return A;
  }
};

struct FTail;
using FTailPtr = std::unique_ptr<FTail>;

/// Right-hand side of a let binding.
struct FRhs {
  enum class Kind : uint8_t { Atom, Prim, Call, If } K = Kind::Atom;
  Atom A;                 // Atom
  PrimKind Prim = PrimKind::Add;
  int32_t Imm = 0;        // Prim immediate
  int32_t Imm2 = 0;       // AllocClosure free-var count
  std::vector<Atom> Args; // Prim args / Call [fn, arg]
  FTailPtr Then, Else;    // If (condition in Args[0]); branches Ret a value
};

/// A tail-structured body.
struct FTail {
  enum class Kind : uint8_t { Ret, Let, If, TailCall } K = Kind::Ret;
  Atom A;            // Ret atom / If condition / TailCall fn
  Atom B;            // TailCall arg
  std::string Name;  // Let
  FRhs Rhs;          // Let
  FTailPtr Rest;     // Let
  FTailPtr Then, Else; // If

  static FTailPtr ret(Atom V) {
    auto T = std::make_unique<FTail>();
    T->K = Kind::Ret;
    T->A = std::move(V);
    return T;
  }
  static FTailPtr letRhs(std::string Name, FRhs Rhs, FTailPtr Rest) {
    auto T = std::make_unique<FTail>();
    T->K = Kind::Let;
    T->Name = std::move(Name);
    T->Rhs = std::move(Rhs);
    T->Rest = std::move(Rest);
    return T;
  }
  static FTailPtr ifTail(Atom Cond, FTailPtr Then, FTailPtr Else) {
    auto T = std::make_unique<FTail>();
    T->K = Kind::If;
    T->A = std::move(Cond);
    T->Then = std::move(Then);
    T->Else = std::move(Else);
    return T;
  }
  static FTailPtr tailCall(Atom Fn, Atom Arg) {
    auto T = std::make_unique<FTail>();
    T->K = Kind::TailCall;
    T->A = std::move(Fn);
    T->B = std::move(Arg);
    return T;
  }
};

/// One first-order function.  Calling convention: the closure pointer and
/// the single argument.
struct FlatFunction {
  unsigned Id = 0;
  std::string Name;     ///< for listings; derived from the source binder
  std::string CloParam; ///< receives the closure pointer
  std::string ArgParam; ///< receives the argument
  unsigned FreeCount = 0;
  FTailPtr Body;
};

struct FlatProgram {
  std::vector<FlatFunction> Funs;
  FTailPtr Main;
  unsigned GlobalCount = 0;
  std::vector<std::string> StringPool;
};

/// Where flattening stands after some top-level declarations: the next
/// function id, the temporaries' counter and the interned strings.
struct FlattenState {
  unsigned NextFunId = 0;
  unsigned NextTmp = 0;
  std::vector<std::string> StringPool;
  std::map<std::string, unsigned> Interned; ///< StringPool, inverted
};

/// A-normalises and closure-converts \p Prog, which follows the code
/// \p State describes, and advances \p State past it.  The result holds
/// the functions this run emits (ids from State.NextFunId) and the whole
/// string pool.
FlatProgram flattenProgram(CoreProgram Prog, FlattenState &State);

/// A-normalises and closure-converts a Core program.
FlatProgram flattenProgram(CoreProgram Prog);

/// \p Before with \p After in place of its final `ret`: the main of a
/// program whose top-level declarations follow Before's.  Before must be a
/// chain of lets ending in a return, as every flattened main is.
FTailPtr appendMain(const FTail &Before, FTailPtr After);

/// Renders the Flat IR (tests, -emit-flat debugging).
std::string flatToString(const FlatProgram &Prog);

} // namespace cml
} // namespace silver

#endif // SILVER_CML_FLAT_H
