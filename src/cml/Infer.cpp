//===- cml/Infer.cpp - Hindley-Milner type inference ------------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "cml/Infer.h"

#include <cassert>
#include <functional>

using namespace silver;
using namespace silver::cml;

TypePtr silver::cml::resolve(TypePtr T) {
  while (T->K == Type::Kind::Var && T->Link)
    T = T->Link;
  return T;
}

std::string silver::cml::typeToString(const TypePtr &TIn) {
  TypePtr T = resolve(TIn);
  if (T->K == Type::Kind::Var)
    return "'t" + std::to_string(T->Id);
  if (T->Name == "->")
    return '(' + typeToString(T->Args[0]) + " -> " +
           typeToString(T->Args[1]) + ")";
  if (T->Name == "pair")
    return '(' + typeToString(T->Args[0]) + " * " +
           typeToString(T->Args[1]) + ")";
  if (T->Name == "list")
    return typeToString(T->Args[0]) + " list";
  return T->Name;
}

const std::map<std::string, PrimitiveInfo> &silver::cml::primitiveSchemes() {
  static const std::map<std::string, PrimitiveInfo> Prims = [] {
    std::map<std::string, PrimitiveInfo> M;
    auto Mono = [](TypePtr T) { return Scheme::mono(std::move(T)); };
    M["str_size"] = {1, Mono(tyFun(tyString(), tyInt()))};
    M["str_sub"] = {2, Mono(tyFun(tyString(), tyFun(tyInt(), tyChar())))};
    M["substring"] = {
        3, Mono(tyFun(tyString(),
                      tyFun(tyInt(), tyFun(tyInt(), tyString()))))};
    M["strcmp"] = {2, Mono(tyFun(tyString(), tyFun(tyString(), tyInt())))};
    M["concat_list"] = {1, Mono(tyFun(tyList(tyString()), tyString()))};
    M["implode"] = {1, Mono(tyFun(tyList(tyChar()), tyString()))};
    M["ord"] = {1, Mono(tyFun(tyChar(), tyInt()))};
    M["chr"] = {1, Mono(tyFun(tyInt(), tyChar()))};
    M["print"] = {1, Mono(tyFun(tyString(), tyUnit()))};
    M["print_err"] = {1, Mono(tyFun(tyString(), tyUnit()))};
    M["read_chunk"] = {1, Mono(tyFun(tyInt(), tyString()))};
    M["arg_count"] = {1, Mono(tyFun(tyUnit(), tyInt()))};
    M["arg_n"] = {1, Mono(tyFun(tyInt(), tyString()))};
    // exit : int -> 'a  (it never returns).
    TypePtr A = Type::var(-1, 0);
    Scheme ExitScheme;
    ExitScheme.Quantified = {-1};
    ExitScheme.Body = tyFun(tyInt(), A);
    M["exit"] = {1, ExitScheme};
    return M;
  }();
  return Prims;
}

namespace {

/// Environment: lexically scoped map from names to schemes.
class TypeEnv {
public:
  void bind(const std::string &Name, Scheme S) {
    Bindings[Name] = std::move(S);
  }
  const Scheme *lookup(const std::string &Name) const {
    auto It = Bindings.find(Name);
    return It == Bindings.end() ? nullptr : &It->second;
  }
  std::map<std::string, Scheme> Bindings;
};

class Inferencer {
public:
  Result<std::map<std::string, Scheme>> run(const Program &Prog);

private:
  int NextVarId = 0;
  int Level = 0;
  std::vector<std::pair<TypePtr, Loc>> EqualityChecks;

  TypePtr freshVar() { return Type::var(NextVarId++, Level); }

  Result<void> unify(TypePtr A, TypePtr B, Loc Where);
  bool occursAndAdjust(const TypePtr &Var, TypePtr T);
  TypePtr instantiate(const Scheme &S);
  Scheme generalize(TypePtr T);
  void collectLooseVars(TypePtr T, std::vector<int> &Ids);

  Result<TypePtr> inferExp(const Exp &E, TypeEnv &Env);
  Result<TypePtr> inferPat(const Pat &P, TypeEnv &Env);
  Result<void> inferFunGroup(const std::vector<FunBind> &Funs, TypeEnv &Env);
  Result<void> checkEqualities();
};

Result<void> Inferencer::unify(TypePtr A, TypePtr B, Loc Where) {
  A = resolve(std::move(A));
  B = resolve(std::move(B));
  if (A == B)
    return {};
  if (A->K == Type::Kind::Var) {
    if (occursAndAdjust(A, B))
      return Error("occurs check: cannot construct the infinite type",
                   Where.Line, Where.Col);
    A->Link = B;
    return {};
  }
  if (B->K == Type::Kind::Var)
    return unify(B, A, Where);
  if (A->Name != B->Name || A->Args.size() != B->Args.size())
    return Error("type mismatch: " + typeToString(A) + " vs " +
                     typeToString(B),
                 Where.Line, Where.Col);
  for (size_t I = 0, E = A->Args.size(); I != E; ++I)
    if (Result<void> U = unify(A->Args[I], B->Args[I], Where); !U)
      return U;
  return {};
}

bool Inferencer::occursAndAdjust(const TypePtr &Var, TypePtr T) {
  T = resolve(std::move(T));
  if (T == Var)
    return true;
  if (T->K == Type::Kind::Var) {
    // Level adjustment: a variable escaping into an outer binder must not
    // be generalised at the inner level.
    if (T->Level > Var->Level)
      T->Level = Var->Level;
    return false;
  }
  for (const TypePtr &Arg : T->Args)
    if (occursAndAdjust(Var, Arg))
      return true;
  return false;
}

TypePtr Inferencer::instantiate(const Scheme &S) {
  if (S.Quantified.empty())
    return S.Body;
  std::map<int, TypePtr> Subst;
  for (int Id : S.Quantified)
    Subst[Id] = freshVar();
  // Substitute quantified variables with fresh ones.
  std::function<TypePtr(TypePtr)> Walk = [&](TypePtr T) -> TypePtr {
    T = resolve(std::move(T));
    if (T->K == Type::Kind::Var) {
      auto It = Subst.find(T->Id);
      return It == Subst.end() ? T : It->second;
    }
    if (T->Args.empty())
      return T;
    std::vector<TypePtr> Args;
    Args.reserve(T->Args.size());
    for (const TypePtr &Arg : T->Args)
      Args.push_back(Walk(Arg));
    return Type::con(T->Name, std::move(Args));
  };
  return Walk(S.Body);
}

void Inferencer::collectLooseVars(TypePtr T, std::vector<int> &Ids) {
  T = resolve(std::move(T));
  if (T->K == Type::Kind::Var) {
    if (T->Level > Level) {
      for (int Id : Ids)
        if (Id == T->Id)
          return;
      Ids.push_back(T->Id);
    }
    return;
  }
  for (const TypePtr &Arg : T->Args)
    collectLooseVars(Arg, Ids);
}

Scheme Inferencer::generalize(TypePtr T) {
  Scheme S;
  S.Body = std::move(T);
  collectLooseVars(S.Body, S.Quantified);
  return S;
}

Result<TypePtr> Inferencer::inferPat(const Pat &P, TypeEnv &Env) {
  switch (P.Kind) {
  case PatKind::Wild:
    return freshVar();
  case PatKind::Var: {
    TypePtr T = freshVar();
    Env.bind(P.Name, Scheme::mono(T));
    return T;
  }
  case PatKind::IntLit:
    return tyInt();
  case PatKind::CharLit:
    return tyChar();
  case PatKind::StrLit:
    return tyString();
  case PatKind::BoolLit:
    return tyBool();
  case PatKind::UnitLit:
    return tyUnit();
  case PatKind::Nil:
    return tyList(freshVar());
  case PatKind::Cons: {
    Result<TypePtr> Head = inferPat(*P.Sub0, Env);
    if (!Head)
      return Head;
    Result<TypePtr> Tail = inferPat(*P.Sub1, Env);
    if (!Tail)
      return Tail;
    TypePtr ListTy = tyList(Head.take());
    if (Result<void> U = unify(ListTy, Tail.take(), P.Where); !U)
      return U.error();
    return ListTy;
  }
  case PatKind::Pair: {
    Result<TypePtr> First = inferPat(*P.Sub0, Env);
    if (!First)
      return First;
    Result<TypePtr> Second = inferPat(*P.Sub1, Env);
    if (!Second)
      return Second;
    return tyPair(First.take(), Second.take());
  }
  }
  return Error("unhandled pattern");
}

Result<void> Inferencer::inferFunGroup(const std::vector<FunBind> &Funs,
                                       TypeEnv &Env) {
  // Monomorphic within the group, generalised afterwards.
  ++Level;
  std::vector<TypePtr> FunTypes;
  for (const FunBind &F : Funs) {
    TypePtr T = freshVar();
    FunTypes.push_back(T);
    Env.bind(F.Name, Scheme::mono(T));
  }
  for (size_t I = 0, E = Funs.size(); I != E; ++I) {
    const FunBind &F = Funs[I];
    TypeEnv Inner = Env;
    std::vector<TypePtr> ParamTypes;
    for (const std::string &Param : F.Params) {
      TypePtr T = freshVar();
      ParamTypes.push_back(T);
      if (Param != "_")
        Inner.bind(Param, Scheme::mono(T));
    }
    Result<TypePtr> Body = inferExp(*F.Body, Inner);
    if (!Body)
      return Body.error();
    TypePtr FunTy = Body.take();
    for (auto It = ParamTypes.rbegin(); It != ParamTypes.rend(); ++It)
      FunTy = tyFun(*It, FunTy);
    if (Result<void> U = unify(FunTypes[I], FunTy, F.Where); !U)
      return U;
  }
  --Level;
  for (size_t I = 0, E = Funs.size(); I != E; ++I)
    Env.bind(Funs[I].Name, generalize(FunTypes[I]));
  return {};
}

Result<TypePtr> Inferencer::inferExp(const Exp &E, TypeEnv &Env) {
  switch (E.Kind) {
  case ExpKind::Var: {
    if (const Scheme *S = Env.lookup(E.Name))
      return instantiate(*S);
    return Error("unbound variable '" + E.Name + "'", E.Where.Line,
                 E.Where.Col);
  }
  case ExpKind::IntLit:
    return tyInt();
  case ExpKind::CharLit:
    return tyChar();
  case ExpKind::StrLit:
    return tyString();
  case ExpKind::BoolLit:
    return tyBool();
  case ExpKind::UnitLit:
    return tyUnit();
  case ExpKind::Nil:
    return tyList(freshVar());
  case ExpKind::Fn: {
    TypeEnv Inner = Env;
    TypePtr ParamTy = freshVar();
    if (E.Name != "_")
      Inner.bind(E.Name, Scheme::mono(ParamTy));
    Result<TypePtr> Body = inferExp(*E.E0, Inner);
    if (!Body)
      return Body;
    return tyFun(ParamTy, Body.take());
  }
  case ExpKind::App: {
    Result<TypePtr> FunTy = inferExp(*E.E0, Env);
    if (!FunTy)
      return FunTy;
    Result<TypePtr> ArgTy = inferExp(*E.E1, Env);
    if (!ArgTy)
      return ArgTy;
    TypePtr ResTy = freshVar();
    if (Result<void> U =
            unify(FunTy.take(), tyFun(ArgTy.take(), ResTy), E.Where);
        !U)
      return U.error();
    return ResTy;
  }
  case ExpKind::If: {
    Result<TypePtr> Cond = inferExp(*E.E0, Env);
    if (!Cond)
      return Cond;
    if (Result<void> U = unify(Cond.take(), tyBool(), E.E0->Where); !U)
      return U.error();
    Result<TypePtr> Then = inferExp(*E.E1, Env);
    if (!Then)
      return Then;
    Result<TypePtr> Else = inferExp(*E.E2, Env);
    if (!Else)
      return Else;
    TypePtr T = Then.take();
    if (Result<void> U = unify(T, Else.take(), E.Where); !U)
      return U.error();
    return T;
  }
  case ExpKind::Case: {
    Result<TypePtr> Scrut = inferExp(*E.E0, Env);
    if (!Scrut)
      return Scrut;
    TypePtr ScrutTy = Scrut.take();
    TypePtr ResTy = freshVar();
    for (const MatchArm &Arm : E.Arms) {
      TypeEnv Inner = Env;
      Result<TypePtr> PatTy = inferPat(*Arm.Pattern, Inner);
      if (!PatTy)
        return PatTy;
      if (Result<void> U = unify(ScrutTy, PatTy.take(), Arm.Pattern->Where);
          !U)
        return U.error();
      Result<TypePtr> BodyTy = inferExp(*Arm.Body, Inner);
      if (!BodyTy)
        return BodyTy;
      if (Result<void> U = unify(ResTy, BodyTy.take(), Arm.Body->Where); !U)
        return U.error();
    }
    return ResTy;
  }
  case ExpKind::LetVal: {
    ++Level;
    Result<TypePtr> Bound = inferExp(*E.E0, Env);
    if (!Bound)
      return Bound;
    --Level;
    TypeEnv Inner = Env;
    if (E.Name != "_")
      Inner.bind(E.Name, generalize(Bound.take()));
    return inferExp(*E.E1, Inner);
  }
  case ExpKind::LetFun: {
    TypeEnv Inner = Env;
    if (Result<void> G = inferFunGroup(E.Funs, Inner); !G)
      return G.error();
    return inferExp(*E.E0, Inner);
  }
  case ExpKind::Pair: {
    Result<TypePtr> First = inferExp(*E.E0, Env);
    if (!First)
      return First;
    Result<TypePtr> Second = inferExp(*E.E1, Env);
    if (!Second)
      return Second;
    return tyPair(First.take(), Second.take());
  }
  case ExpKind::AndAlso:
  case ExpKind::OrElse: {
    Result<TypePtr> Lhs = inferExp(*E.E0, Env);
    if (!Lhs)
      return Lhs;
    if (Result<void> U = unify(Lhs.take(), tyBool(), E.E0->Where); !U)
      return U.error();
    Result<TypePtr> Rhs = inferExp(*E.E1, Env);
    if (!Rhs)
      return Rhs;
    if (Result<void> U = unify(Rhs.take(), tyBool(), E.E1->Where); !U)
      return U.error();
    return tyBool();
  }
  case ExpKind::Prim: {
    Result<TypePtr> Lhs = inferExp(*E.E0, Env);
    if (!Lhs)
      return Lhs;
    Result<TypePtr> Rhs = inferExp(*E.E1, Env);
    if (!Rhs)
      return Rhs;
    TypePtr L = Lhs.take();
    TypePtr R = Rhs.take();
    switch (E.Op) {
    case BinOp::Add:
    case BinOp::Sub:
    case BinOp::Mul:
    case BinOp::Div:
    case BinOp::Mod:
      if (Result<void> U = unify(L, tyInt(), E.E0->Where); !U)
        return U.error();
      if (Result<void> U = unify(R, tyInt(), E.E1->Where); !U)
        return U.error();
      return tyInt();
    case BinOp::Lt:
    case BinOp::Le:
    case BinOp::Gt:
    case BinOp::Ge:
      if (Result<void> U = unify(L, tyInt(), E.E0->Where); !U)
        return U.error();
      if (Result<void> U = unify(R, tyInt(), E.E1->Where); !U)
        return U.error();
      return tyBool();
    case BinOp::Eq:
    case BinOp::Neq:
      if (Result<void> U = unify(L, R, E.Where); !U)
        return U.error();
      EqualityChecks.push_back({L, E.Where});
      return tyBool();
    case BinOp::Concat:
      if (Result<void> U = unify(L, tyString(), E.E0->Where); !U)
        return U.error();
      if (Result<void> U = unify(R, tyString(), E.E1->Where); !U)
        return U.error();
      return tyString();
    case BinOp::Cons: {
      TypePtr ListTy = tyList(L);
      if (Result<void> U = unify(ListTy, R, E.Where); !U)
        return U.error();
      return ListTy;
    }
    }
    return Error("unhandled operator");
  }
  }
  return Error("unhandled expression");
}

/// True when \p T contains a function type (not an equality type).
static bool containsFunction(TypePtr T) {
  T = resolve(std::move(T));
  if (T->K == Type::Kind::Var)
    return false; // unresolved: treated as an equality type variable
  if (T->Name == "->")
    return true;
  for (const TypePtr &Arg : T->Args)
    if (containsFunction(Arg))
      return true;
  return false;
}

Result<void> Inferencer::checkEqualities() {
  for (const auto &[T, Where] : EqualityChecks)
    if (containsFunction(T))
      return Error("equality used at a function type " + typeToString(T),
                   Where.Line, Where.Col);
  return {};
}

Result<std::map<std::string, Scheme>> Inferencer::run(const Program &Prog) {
  TypeEnv Env;
  for (const auto &[Name, Info] : primitiveSchemes())
    Env.bind(Name, Info.TypeScheme);

  std::map<std::string, Scheme> TopTypes;
  for (const Dec &D : Prog.Decs) {
    if (D.K == Dec::Kind::Val) {
      ++Level;
      Result<TypePtr> T = inferExp(*D.Body, Env);
      if (!T)
        return T.error();
      --Level;
      Scheme S = generalize(T.take());
      Env.bind(D.Name, S);
      TopTypes[D.Name] = S;
    } else {
      if (Result<void> G = inferFunGroup(D.Funs, Env); !G)
        return G.error();
      for (const FunBind &F : D.Funs)
        TopTypes[F.Name] = *Env.lookup(F.Name);
    }
  }
  if (Result<void> Eq = checkEqualities(); !Eq)
    return Eq.error();
  return TopTypes;
}

} // namespace

Result<std::map<std::string, Scheme>>
silver::cml::inferProgram(const Program &Prog) {
  Inferencer I;
  return I.run(Prog);
}
