//===- cml/Flatten.cpp - A-normalisation and closure conversion -------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "cml/Flat.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>
#include <set>

using namespace silver;
using namespace silver::cml;

namespace {

/// Free variables of a Core expression (locals only; globals are prims).
void freeVarsInto(const CExp &E, std::set<std::string> &Bound,
                  std::set<std::string> &Out) {
  switch (E.Kind) {
  case CExpKind::Var:
    if (!Bound.count(E.Name))
      Out.insert(E.Name);
    return;
  case CExpKind::IntConst:
  case CExpKind::StrConst:
  case CExpKind::NilConst:
    return;
  case CExpKind::Fn: {
    bool Inserted = Bound.insert(E.Name).second;
    freeVarsInto(*E.Args[0], Bound, Out);
    if (Inserted)
      Bound.erase(E.Name);
    return;
  }
  case CExpKind::App:
  case CExpKind::Prim:
  case CExpKind::If:
    for (const CExpPtr &A : E.Args)
      freeVarsInto(*A, Bound, Out);
    return;
  case CExpKind::Let: {
    freeVarsInto(*E.Args[0], Bound, Out);
    bool Inserted = Bound.insert(E.Name).second;
    freeVarsInto(*E.Args[1], Bound, Out);
    if (Inserted)
      Bound.erase(E.Name);
    return;
  }
  case CExpKind::Letrec: {
    std::vector<std::string> Added;
    for (const CoreFun &F : E.Funs)
      if (Bound.insert(F.Name).second)
        Added.push_back(F.Name);
    for (const CoreFun &F : E.Funs) {
      bool Inserted = Bound.insert(F.Param).second;
      freeVarsInto(*F.Body, Bound, Out);
      if (Inserted)
        Bound.erase(F.Param);
    }
    freeVarsInto(*E.Args[0], Bound, Out);
    for (const std::string &N : Added)
      Bound.erase(N);
    return;
  }
  }
}

std::vector<std::string> freeVars(const CExp &E,
                                  const std::set<std::string> &Minus) {
  std::set<std::string> Bound = Minus;
  std::set<std::string> Out;
  freeVarsInto(E, Bound, Out);
  return std::vector<std::string>(Out.begin(), Out.end());
}

class Flattener {
public:
  explicit Flattener(FlattenState &S) : S(S), FirstFunId(S.NextFunId) {
    Out.StringPool = S.StringPool;
  }

  FlatProgram run(CoreProgram Prog);

private:
  FlattenState &S;
  const unsigned FirstFunId;
  FlatProgram Out;

  std::string fresh() { return "%t" + std::to_string(S.NextTmp++); }

  unsigned intern(const std::string &Str) {
    auto It = S.Interned.find(Str);
    if (It != S.Interned.end())
      return It->second;
    unsigned Idx = static_cast<unsigned>(Out.StringPool.size());
    Out.StringPool.push_back(Str);
    S.Interned.emplace(Str, Idx);
    return Idx;
  }

  using Kont = std::function<FTailPtr(Atom)>;

  /// Flattens \p E in non-tail position, passing the result atom to \p K.
  FTailPtr flatten(const CExp &E, const Kont &K);
  /// Flattens \p E in tail position.  When \p AllowTailCall is false
  /// (the branches of a value-producing if), applications compile as
  /// ordinary calls and the final atom is returned to the join point.
  FTailPtr flattenTail(const CExp &E, bool AllowTailCall = true);
  /// Flattens a list of expressions left-to-right into atoms.
  FTailPtr flattenAll(const std::vector<CExpPtr> &Es, size_t I,
                      std::vector<Atom> &Atoms,
                      const std::function<FTailPtr()> &K);

  /// Emits a function for a lambda and returns the closure-construction
  /// code: Let C = AllocClosure; ClosSet...; K(C).
  FTailPtr makeClosure(const std::string &DebugName,
                       const std::string &Param, const CExp &Body,
                       const Kont &K);
  /// Shared letrec lowering; \p BodyK produces the code after the group.
  FTailPtr flattenLetrec(const CExp &E,
                         const std::function<FTailPtr()> &BodyK);
  unsigned emitFunction(const std::string &DebugName,
                        const std::string &Param, const CExp &Body,
                        const std::vector<std::string> &Fvs);
};

FTailPtr Flattener::flattenAll(const std::vector<CExpPtr> &Es, size_t I,
                               std::vector<Atom> &Atoms,
                               const std::function<FTailPtr()> &K) {
  if (I == Es.size())
    return K();
  return flatten(*Es[I], [&](Atom A) {
    Atoms.push_back(std::move(A));
    return flattenAll(Es, I + 1, Atoms, K);
  });
}

unsigned Flattener::emitFunction(const std::string &DebugName,
                                 const std::string &Param, const CExp &Body,
                                 const std::vector<std::string> &Fvs) {
  FlatFunction F;
  F.Id = FirstFunId + static_cast<unsigned>(Out.Funs.size());
  F.Name = DebugName;
  F.CloParam = "%clo" + std::to_string(F.Id);
  F.ArgParam = Param;
  F.FreeCount = static_cast<unsigned>(Fvs.size());
  // Reserve the slot before recursing (nested lambdas allocate ids too).
  Out.Funs.push_back(std::move(F));
  unsigned Id = Out.Funs.back().Id;
  std::string CloParam = Out.Funs.back().CloParam;

  FTailPtr Inner = flattenTail(Body);
  // Bind the free variables from the closure environment, innermost last.
  for (size_t I = Fvs.size(); I-- > 0;) {
    FRhs Rhs;
    Rhs.K = FRhs::Kind::Prim;
    Rhs.Prim = PrimKind::ClosEnv;
    Rhs.Imm = static_cast<int32_t>(I);
    Rhs.Args.push_back(Atom::var(CloParam));
    Inner = FTail::letRhs(Fvs[I], std::move(Rhs), std::move(Inner));
  }
  Out.Funs[Id - FirstFunId].Body = std::move(Inner);
  return Id;
}

FTailPtr Flattener::makeClosure(const std::string &DebugName,
                                const std::string &Param, const CExp &Body,
                                const Kont &K) {
  std::vector<std::string> Fvs = freeVars(Body, {Param});
  unsigned Id = emitFunction(DebugName, Param, Body, Fvs);

  std::string C = fresh();
  FRhs Alloc;
  Alloc.K = FRhs::Kind::Prim;
  Alloc.Prim = PrimKind::AllocClosure;
  Alloc.Imm = static_cast<int32_t>(Id);
  Alloc.Imm2 = static_cast<int32_t>(Fvs.size());
  FTailPtr Rest = K(Atom::var(C));
  // ClosSet chains, built back to front.
  for (size_t I = Fvs.size(); I-- > 0;) {
    FRhs Set;
    Set.K = FRhs::Kind::Prim;
    Set.Prim = PrimKind::ClosSet;
    Set.Imm = static_cast<int32_t>(I);
    Set.Args.push_back(Atom::var(C));
    Set.Args.push_back(Atom::var(Fvs[I]));
    Rest = FTail::letRhs(fresh(), std::move(Set), std::move(Rest));
  }
  return FTail::letRhs(C, std::move(Alloc), std::move(Rest));
}

FTailPtr Flattener::flattenTail(const CExp &E, bool AllowTailCall) {
  switch (E.Kind) {
  case CExpKind::App: {
    if (!AllowTailCall)
      break; // compile as a non-tail call returning the result
    return flatten(*E.Args[0], [&](Atom F) {
      return flatten(*E.Args[1], [&](Atom A) {
        return FTail::tailCall(std::move(F), std::move(A));
      });
    });
  }
  case CExpKind::If: {
    return flatten(*E.Args[0], [&](Atom C) {
      return FTail::ifTail(std::move(C),
                           flattenTail(*E.Args[1], AllowTailCall),
                           flattenTail(*E.Args[2], AllowTailCall));
    });
  }
  case CExpKind::Let: {
    // let x = e1 in e2 (e2 stays in tail position)
    return flatten(*E.Args[0], [&](Atom V) {
      FRhs Rhs;
      Rhs.K = FRhs::Kind::Atom;
      Rhs.A = std::move(V);
      return FTail::letRhs(E.Name, std::move(Rhs),
                           flattenTail(*E.Args[1], AllowTailCall));
    });
  }
  case CExpKind::Letrec:
    return flattenLetrec(
        E, [&]() { return flattenTail(*E.Args[0], AllowTailCall); });
  default:
    break;
  }
  return flatten(E, [&](Atom A) { return FTail::ret(std::move(A)); });
}

FTailPtr Flattener::flattenLetrec(const CExp &E,
                                  const std::function<FTailPtr()> &BodyK) {
  // Allocate every closure first, then backpatch the environments
  // (sibling and self references become ordinary free variables).
  struct FunPlan {
    const CoreFun *F;
    std::vector<std::string> Fvs;
    unsigned Id;
  };
  std::vector<FunPlan> Plans;
  for (const CoreFun &F : E.Funs) {
    FunPlan P;
    P.F = &F;
    P.Fvs = freeVars(*F.Body, {F.Param});
    P.Id = emitFunction(F.Name, F.Param, *F.Body, P.Fvs);
    Plans.push_back(std::move(P));
  }
  FTailPtr Rest = BodyK();
  // ClosSets (after all allocations), back to front.
  for (size_t I = Plans.size(); I-- > 0;) {
    const FunPlan &P = Plans[I];
    for (size_t J = P.Fvs.size(); J-- > 0;) {
      FRhs Set;
      Set.K = FRhs::Kind::Prim;
      Set.Prim = PrimKind::ClosSet;
      Set.Imm = static_cast<int32_t>(J);
      Set.Args.push_back(Atom::var(P.F->Name));
      Set.Args.push_back(Atom::var(P.Fvs[J]));
      Rest = FTail::letRhs(fresh(), std::move(Set), std::move(Rest));
    }
  }
  // Allocations, back to front, binding the function names.
  for (size_t I = Plans.size(); I-- > 0;) {
    const FunPlan &P = Plans[I];
    FRhs Alloc;
    Alloc.K = FRhs::Kind::Prim;
    Alloc.Prim = PrimKind::AllocClosure;
    Alloc.Imm = static_cast<int32_t>(P.Id);
    Alloc.Imm2 = static_cast<int32_t>(P.Fvs.size());
    Rest = FTail::letRhs(P.F->Name, std::move(Alloc), std::move(Rest));
  }
  return Rest;
}

FTailPtr Flattener::flatten(const CExp &E, const Kont &K) {
  switch (E.Kind) {
  case CExpKind::Var:
    return K(Atom::var(E.Name));
  case CExpKind::IntConst:
    return K(Atom::intConst(E.Int));
  case CExpKind::StrConst:
    return K(Atom::strConst(intern(E.Str)));
  case CExpKind::NilConst:
    return K(Atom::nil());
  case CExpKind::Fn:
    return makeClosure("lambda", E.Name, *E.Args[0], K);
  case CExpKind::App: {
    return flatten(*E.Args[0], [&](Atom F) {
      return flatten(*E.Args[1], [&](Atom A) {
        std::string X = fresh();
        FRhs Rhs;
        Rhs.K = FRhs::Kind::Call;
        Rhs.Args.push_back(std::move(F));
        Rhs.Args.push_back(std::move(A));
        return FTail::letRhs(X, std::move(Rhs), K(Atom::var(X)));
      });
    });
  }
  case CExpKind::Prim: {
    std::vector<Atom> Atoms;
    Atoms.reserve(E.Args.size());
    return flattenAll(E.Args, 0, Atoms, [&]() {
      std::string X = fresh();
      FRhs Rhs;
      Rhs.K = FRhs::Kind::Prim;
      Rhs.Prim = E.Prim;
      Rhs.Imm = E.Imm;
      Rhs.Args = std::move(Atoms);
      return FTail::letRhs(X, std::move(Rhs), K(Atom::var(X)));
    });
  }
  case CExpKind::If: {
    return flatten(*E.Args[0], [&](Atom C) {
      std::string X = fresh();
      FRhs Rhs;
      Rhs.K = FRhs::Kind::If;
      Rhs.Args.push_back(std::move(C));
      Rhs.Then = flattenTail(*E.Args[1], /*AllowTailCall=*/false);
      Rhs.Else = flattenTail(*E.Args[2], /*AllowTailCall=*/false);
      return FTail::letRhs(X, std::move(Rhs), K(Atom::var(X)));
    });
  }
  case CExpKind::Let: {
    return flatten(*E.Args[0], [&](Atom V) {
      FRhs Rhs;
      Rhs.K = FRhs::Kind::Atom;
      Rhs.A = std::move(V);
      return FTail::letRhs(E.Name, std::move(Rhs),
                           flatten(*E.Args[1], K));
    });
  }
  case CExpKind::Letrec: {
    // Allocate every closure first, then backpatch the environments
    // (sibling and self references become ordinary free variables).
    struct FunPlan {
      const CoreFun *F;
      std::vector<std::string> Fvs;
      unsigned Id;
    };
    std::vector<FunPlan> Plans;
    for (const CoreFun &F : E.Funs) {
      FunPlan P;
      P.F = &F;
      P.Fvs = freeVars(*F.Body, {F.Param});
      P.Id = emitFunction(F.Name, F.Param, *F.Body, P.Fvs);
      Plans.push_back(std::move(P));
    }
    // Continuation: body of the letrec.
    FTailPtr Rest = flatten(*E.Args[0], K);
    // ClosSets (after all allocations), back to front.
    for (size_t I = Plans.size(); I-- > 0;) {
      const FunPlan &P = Plans[I];
      for (size_t J = P.Fvs.size(); J-- > 0;) {
        FRhs Set;
        Set.K = FRhs::Kind::Prim;
        Set.Prim = PrimKind::ClosSet;
        Set.Imm = static_cast<int32_t>(J);
        Set.Args.push_back(Atom::var(P.F->Name));
        Set.Args.push_back(Atom::var(P.Fvs[J]));
        Rest = FTail::letRhs(fresh(), std::move(Set), std::move(Rest));
      }
    }
    // Allocations, back to front, binding the function names.
    for (size_t I = Plans.size(); I-- > 0;) {
      const FunPlan &P = Plans[I];
      FRhs Alloc;
      Alloc.K = FRhs::Kind::Prim;
      Alloc.Prim = PrimKind::AllocClosure;
      Alloc.Imm = static_cast<int32_t>(P.Id);
      Alloc.Imm2 = static_cast<int32_t>(P.Fvs.size());
      Rest = FTail::letRhs(P.F->Name, std::move(Alloc), std::move(Rest));
    }
    return Rest;
  }
  }
  return nullptr;
}

FlatProgram Flattener::run(CoreProgram Prog) {
  Out.GlobalCount = Prog.GlobalCount;
  Out.Main = flattenTail(*Prog.Main);
  S.NextFunId = FirstFunId + static_cast<unsigned>(Out.Funs.size());
  S.StringPool = Out.StringPool;
  return std::move(Out);
}

FTailPtr cloneTail(const FTail &T);

FRhs cloneRhs(const FRhs &R) {
  FRhs C;
  C.K = R.K;
  C.A = R.A;
  C.Prim = R.Prim;
  C.Imm = R.Imm;
  C.Imm2 = R.Imm2;
  C.Args = R.Args;
  if (R.Then)
    C.Then = cloneTail(*R.Then);
  if (R.Else)
    C.Else = cloneTail(*R.Else);
  return C;
}

FTailPtr cloneTail(const FTail &T) {
  auto C = std::make_unique<FTail>();
  C->K = T.K;
  C->A = T.A;
  C->B = T.B;
  C->Name = T.Name;
  C->Rhs = cloneRhs(T.Rhs);
  if (T.Rest)
    C->Rest = cloneTail(*T.Rest);
  if (T.Then)
    C->Then = cloneTail(*T.Then);
  if (T.Else)
    C->Else = cloneTail(*T.Else);
  return C;
}

} // namespace

FlatProgram silver::cml::flattenProgram(CoreProgram Prog,
                                        FlattenState &State) {
  return Flattener(State).run(std::move(Prog));
}

FlatProgram silver::cml::flattenProgram(CoreProgram Prog) {
  FlattenState State;
  return flattenProgram(std::move(Prog), State);
}

FTailPtr silver::cml::appendMain(const FTail &Before, FTailPtr After) {
  // Copy the chain of lets iteratively (it is as long as the earlier
  // program's main), then hang After where its `ret` was.
  FTailPtr Head;
  FTailPtr *Hole = &Head;
  const FTail *T = &Before;
  for (; T->K == FTail::Kind::Let; T = T->Rest.get()) {
    auto C = std::make_unique<FTail>();
    C->K = FTail::Kind::Let;
    C->Name = T->Name;
    C->Rhs = cloneRhs(T->Rhs);
    *Hole = std::move(C);
    Hole = &(*Hole)->Rest;
  }
  assert(T->K == FTail::Kind::Ret && "a main ends in a return");
  *Hole = std::move(After);
  return Head;
}

// --- printing ---------------------------------------------------------------

static std::string atomToString(const Atom &A) {
  switch (A.K) {
  case Atom::Kind::Var:
    return A.Var;
  case Atom::Kind::Int:
    return std::to_string(A.Int);
  case Atom::Kind::Str:
    return "str#" + std::to_string(A.StrIdx);
  case Atom::Kind::Nil:
    return "[]";
  }
  return "?";
}

static void tailToString(const FTail &T, std::string &S, int Indent);

static void rhsToString(const FRhs &R, std::string &S, int Indent) {
  switch (R.K) {
  case FRhs::Kind::Atom:
    S += atomToString(R.A);
    return;
  case FRhs::Kind::Prim:
    S += primName(R.Prim);
    S += "[" + std::to_string(R.Imm) + "]";
    for (const Atom &A : R.Args)
      S += " " + atomToString(A);
    return;
  case FRhs::Kind::Call:
    S += "call " + atomToString(R.Args[0]) + " " + atomToString(R.Args[1]);
    return;
  case FRhs::Kind::If:
    S += "if " + atomToString(R.Args[0]) + " {\n";
    tailToString(*R.Then, S, Indent + 2);
    S += std::string(Indent, ' ') + "} else {\n";
    tailToString(*R.Else, S, Indent + 2);
    S += std::string(Indent, ' ') + "}";
    return;
  }
}

static void tailToString(const FTail &T, std::string &S, int Indent) {
  S += std::string(Indent, ' ');
  switch (T.K) {
  case FTail::Kind::Ret:
    S += "ret " + atomToString(T.A) + "\n";
    return;
  case FTail::Kind::Let:
    S += "let " + T.Name + " = ";
    rhsToString(T.Rhs, S, Indent);
    S += "\n";
    tailToString(*T.Rest, S, Indent);
    return;
  case FTail::Kind::If:
    S += "if " + atomToString(T.A) + " {\n";
    tailToString(*T.Then, S, Indent + 2);
    S += std::string(Indent, ' ') + "} else {\n";
    tailToString(*T.Else, S, Indent + 2);
    S += std::string(Indent, ' ') + "}\n";
    return;
  case FTail::Kind::TailCall:
    S += "tailcall " + atomToString(T.A) + " " + atomToString(T.B) + "\n";
    return;
  }
}

std::string silver::cml::flatToString(const FlatProgram &Prog) {
  std::string S;
  for (const FlatFunction &F : Prog.Funs) {
    S += "fun #" + std::to_string(F.Id) + " " + F.Name + "(" + F.CloParam +
         ", " + F.ArgParam + ") free=" + std::to_string(F.FreeCount) +
         " {\n";
    tailToString(*F.Body, S, 2);
    S += "}\n";
  }
  S += "main {\n";
  tailToString(*Prog.Main, S, 2);
  S += "}\n";
  return S;
}
