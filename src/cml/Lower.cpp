//===- cml/Lower.cpp - AST to Core lowering ----------------------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "cml/Lower.h"

#include "cml/Infer.h"
#include "cml/Interp.h"

#include <cassert>
#include <functional>
#include <map>

using namespace silver;
using namespace silver::cml;

namespace {

const std::map<std::string, PrimDesc> &primDescs() {
  static const std::map<std::string, PrimDesc> M = {
      {"str_size", {PrimKind::StrSize, 1, false}},
      {"str_sub", {PrimKind::StrSub, 2, false}},
      {"substring", {PrimKind::Substring, 3, false}},
      {"strcmp", {PrimKind::Strcmp, 2, false}},
      {"concat_list", {PrimKind::ConcatList, 1, false}},
      {"implode", {PrimKind::Implode, 1, false}},
      {"ord", {PrimKind::Ord, 1, false}},
      {"chr", {PrimKind::Chr, 1, false}},
      {"print", {PrimKind::Print, 1, false}},
      {"print_err", {PrimKind::PrintErr, 1, false}},
      {"read_chunk", {PrimKind::ReadChunk, 1, false}},
      {"arg_count", {PrimKind::ArgCount, 1, true}},
      {"arg_n", {PrimKind::ArgN, 1, false}},
      {"exit", {PrimKind::Exit, 1, false}},
  };
  return M;
}

using Scope = std::map<std::string, Binding>;

/// The name of the let that stores a top-level binding into its global
/// slot.  It is never read; deriving it from the slot (and not from the
/// fresh-name counter) leaves nothing to number after the last
/// declaration, so lowering can stop there and resume.
std::string globalSetName(unsigned Slot) { return "%g" + std::to_string(Slot); }

class Lowerer {
public:
  explicit Lowerer(LowerState &S) : S(S) {}

  CoreProgram run(std::span<const Dec> Decs);

private:
  LowerState &S;

  std::string fresh(const std::string &Base) {
    return Base + "$" + std::to_string(S.NextId++);
  }

  CExpPtr lowerExp(const Exp &E, const Scope &Sc);
  CExpPtr lowerVarUse(const Binding &B);
  CExpPtr lowerPrimCall(const PrimDesc &P, std::vector<CExpPtr> Args);
  CExpPtr etaExpandPrim(const PrimDesc &P, std::vector<CExpPtr> Partial);
  CExpPtr lowerCase(const Exp &E, const Scope &Sc);
  CExpPtr compilePat(const Pat &P, const std::string &ScrutVar, Scope &Sc,
                     const std::function<CExpPtr(Scope &)> &Success,
                     const std::function<CExpPtr()> &Fail);
  std::vector<CoreFun> lowerFunGroup(const std::vector<FunBind> &Funs,
                                     Scope &Sc);
};

/// Counts the tests in a pattern that can fail (drives the thunk-vs-clone
/// decision for the fall-through of a case arm).
static unsigned countFailable(const Pat &P) {
  switch (P.Kind) {
  case PatKind::Wild:
  case PatKind::Var:
  case PatKind::UnitLit:
    return 0;
  case PatKind::IntLit:
  case PatKind::CharLit:
  case PatKind::BoolLit:
  case PatKind::StrLit:
  case PatKind::Nil:
    return 1;
  case PatKind::Cons:
    return 1 + countFailable(*P.Sub0) + countFailable(*P.Sub1);
  case PatKind::Pair:
    return countFailable(*P.Sub0) + countFailable(*P.Sub1);
  }
  return 0;
}

CExpPtr Lowerer::lowerVarUse(const Binding &B) {
  switch (B.K) {
  case Binding::Kind::Local:
    return CExp::var(B.LocalName);
  case Binding::Kind::Global:
    return CExp::prim(PrimKind::GlobalGet, {}, static_cast<int32_t>(B.Slot));
  case Binding::Kind::Prim:
    return etaExpandPrim(B.Prim, {});
  }
  return nullptr;
}

CExpPtr Lowerer::lowerPrimCall(const PrimDesc &P,
                               std::vector<CExpPtr> Args) {
  assert(Args.size() == P.SourceArity && "prim call not saturated");
  if (P.DropUnitArg) {
    // Evaluate the unit argument for effect (it is pure in practice),
    // then issue the zero-argument primitive.
    CExpPtr Call = CExp::prim(P.Kind, {});
    return CExp::let(fresh("u"), std::move(Args[0]), std::move(Call));
  }
  return CExp::prim(P.Kind, std::move(Args));
}

CExpPtr Lowerer::etaExpandPrim(const PrimDesc &P,
                               std::vector<CExpPtr> Partial) {
  // Wrap the missing parameters in nested lambdas.
  std::vector<std::string> Params;
  for (unsigned I = static_cast<unsigned>(Partial.size());
       I != P.SourceArity; ++I)
    Params.push_back(fresh("eta"));
  std::vector<CExpPtr> Args = std::move(Partial);
  for (const std::string &Name : Params)
    Args.push_back(CExp::var(Name));
  CExpPtr Body = lowerPrimCall(P, std::move(Args));
  for (auto It = Params.rbegin(); It != Params.rend(); ++It)
    Body = CExp::fn(*It, std::move(Body));
  return Body;
}

std::vector<CoreFun>
Lowerer::lowerFunGroup(const std::vector<FunBind> &Funs, Scope &Sc) {
  // Bind the group names first (recursion), then lower the bodies with
  // curried parameters.
  std::vector<std::string> LocalNames;
  for (const FunBind &F : Funs) {
    std::string L = fresh(F.Name);
    LocalNames.push_back(L);
    Binding B;
    B.K = Binding::Kind::Local;
    B.LocalName = L;
    Sc[F.Name] = B;
  }
  std::vector<CoreFun> Out;
  for (size_t I = 0, E = Funs.size(); I != E; ++I) {
    const FunBind &F = Funs[I];
    Scope Inner = Sc;
    std::vector<std::string> ParamNames;
    for (const std::string &P : F.Params) {
      std::string L = fresh(P == "_" ? "w" : P);
      ParamNames.push_back(L);
      if (P != "_") {
        Binding B;
        B.K = Binding::Kind::Local;
        B.LocalName = L;
        Inner[P] = B;
      }
    }
    CExpPtr Body = lowerExp(*F.Body, Inner);
    // Curry: fun f x y = e  ==>  f = \x. \y. e, with x the entry param.
    for (size_t J = ParamNames.size(); J-- > 1;)
      Body = CExp::fn(ParamNames[J], std::move(Body));
    CoreFun CF;
    CF.Name = LocalNames[I];
    CF.Param = ParamNames[0];
    CF.Body = std::move(Body);
    Out.push_back(std::move(CF));
  }
  return Out;
}

CExpPtr Lowerer::compilePat(const Pat &P, const std::string &ScrutVar,
                            Scope &Sc,
                            const std::function<CExpPtr(Scope &)> &Success,
                            const std::function<CExpPtr()> &Fail) {
  switch (P.Kind) {
  case PatKind::Wild:
  case PatKind::UnitLit:
    return Success(Sc);
  case PatKind::Var: {
    Binding B;
    B.K = Binding::Kind::Local;
    B.LocalName = fresh(P.Name);
    Sc[P.Name] = B;
    return CExp::let(B.LocalName, CExp::var(ScrutVar), Success(Sc));
  }
  case PatKind::IntLit:
  case PatKind::CharLit:
  case PatKind::BoolLit: {
    std::vector<CExpPtr> Args;
    Args.push_back(CExp::var(ScrutVar));
    Args.push_back(CExp::intConst(wrap31(P.Int)));
    return CExp::ifExp(CExp::prim(PrimKind::PolyEq, std::move(Args)),
                       Success(Sc), Fail());
  }
  case PatKind::StrLit: {
    std::vector<CExpPtr> Args;
    Args.push_back(CExp::var(ScrutVar));
    Args.push_back(CExp::strConst(P.Str));
    return CExp::ifExp(CExp::prim(PrimKind::PolyEq, std::move(Args)),
                       Success(Sc), Fail());
  }
  case PatKind::Nil: {
    std::vector<CExpPtr> Args;
    Args.push_back(CExp::var(ScrutVar));
    return CExp::ifExp(CExp::prim(PrimKind::IsNil, std::move(Args)),
                       Success(Sc), Fail());
  }
  case PatKind::Cons: {
    std::string H = fresh("h");
    std::string T = fresh("t");
    auto InnerSuccess = [&](Scope &S1) -> CExpPtr {
      return compilePat(*P.Sub1, T, S1, Success, Fail);
    };
    std::vector<CExpPtr> IsNilArgs;
    IsNilArgs.push_back(CExp::var(ScrutVar));
    std::vector<CExpPtr> HeadArgs;
    HeadArgs.push_back(CExp::var(ScrutVar));
    std::vector<CExpPtr> TailArgs;
    TailArgs.push_back(CExp::var(ScrutVar));
    CExpPtr Matched = CExp::let(
        H, CExp::prim(PrimKind::Head, std::move(HeadArgs)),
        CExp::let(T, CExp::prim(PrimKind::Tail, std::move(TailArgs)),
                  compilePat(*P.Sub0, H, Sc,
                             [&](Scope &S1) { return InnerSuccess(S1); },
                             Fail)));
    return CExp::ifExp(CExp::prim(PrimKind::IsNil, std::move(IsNilArgs)),
                       Fail(), std::move(Matched));
  }
  case PatKind::Pair: {
    std::string A = fresh("a");
    std::string B = fresh("b");
    std::vector<CExpPtr> FstArgs;
    FstArgs.push_back(CExp::var(ScrutVar));
    std::vector<CExpPtr> SndArgs;
    SndArgs.push_back(CExp::var(ScrutVar));
    auto InnerSuccess = [&](Scope &S1) -> CExpPtr {
      return compilePat(*P.Sub1, B, S1, Success, Fail);
    };
    return CExp::let(
        A, CExp::prim(PrimKind::Fst, std::move(FstArgs)),
        CExp::let(B, CExp::prim(PrimKind::Snd, std::move(SndArgs)),
                  compilePat(*P.Sub0, A, Sc,
                             [&](Scope &S1) { return InnerSuccess(S1); },
                             Fail)));
  }
  }
  return nullptr;
}

CExpPtr Lowerer::lowerCase(const Exp &E, const Scope &Sc) {
  std::string Scrut = fresh("scrut");
  // Compile arms from the last to the first; the fall-through of arm i is
  // the compiled remainder (or a Match trap after the last arm).
  CExpPtr Rest = CExp::prim(PrimKind::Trap, {}, TrapMatchCode);
  for (size_t I = E.Arms.size(); I-- > 0;) {
    const MatchArm &Arm = E.Arms[I];
    unsigned Failable = countFailable(*Arm.Pattern);
    Scope ArmScope = Sc;

    if (Failable <= 1 || Rest->size() <= 24) {
      // Inline the fall-through (cloned per failing test).
      CExp *RestRaw = Rest.get();
      CExpPtr Compiled = compilePat(
          *Arm.Pattern, Scrut, ArmScope,
          [&](Scope &S1) { return lowerExp(*Arm.Body, S1); },
          [&]() { return RestRaw->clone(); });
      Rest = std::move(Compiled);
    } else {
      // Bind the fall-through as a thunk to avoid code explosion.
      std::string K = fresh("k");
      CExpPtr Thunk = CExp::fn(fresh("w"), std::move(Rest));
      CExpPtr Compiled = compilePat(
          *Arm.Pattern, Scrut, ArmScope,
          [&](Scope &S1) { return lowerExp(*Arm.Body, S1); },
          [&]() {
            return CExp::app(CExp::var(K), CExp::intConst(0));
          });
      Rest = CExp::let(K, std::move(Thunk), std::move(Compiled));
    }
  }
  return CExp::let(Scrut, lowerExp(*E.E0, Sc), std::move(Rest));
}

CExpPtr Lowerer::lowerExp(const Exp &E, const Scope &Sc) {
  switch (E.Kind) {
  case ExpKind::Var: {
    auto It = Sc.find(E.Name);
    assert(It != Sc.end() && "unbound variable after type checking");
    return lowerVarUse(It->second);
  }
  case ExpKind::IntLit:
    return CExp::intConst(wrap31(E.Int));
  case ExpKind::CharLit:
  case ExpKind::BoolLit:
    return CExp::intConst(E.Int);
  case ExpKind::UnitLit:
    return CExp::intConst(0);
  case ExpKind::StrLit:
    return CExp::strConst(E.Str);
  case ExpKind::Nil:
    return CExp::nil();
  case ExpKind::Fn: {
    Scope Inner = Sc;
    std::string Param = fresh(E.Name == "_" ? "w" : E.Name);
    if (E.Name != "_") {
      Binding B;
      B.K = Binding::Kind::Local;
      B.LocalName = Param;
      Inner[E.Name] = B;
    }
    return CExp::fn(Param, lowerExp(*E.E0, Inner));
  }
  case ExpKind::App: {
    // Collect the application spine to saturate primitives.
    std::vector<const Exp *> ArgExps;
    const Exp *Base = &E;
    while (Base->Kind == ExpKind::App) {
      ArgExps.push_back(Base->E1.get());
      Base = Base->E0.get();
    }
    std::reverse(ArgExps.begin(), ArgExps.end());
    if (Base->Kind == ExpKind::Var) {
      auto It = Sc.find(Base->Name);
      assert(It != Sc.end() && "unbound variable after type checking");
      if (It->second.K == Binding::Kind::Prim) {
        const PrimDesc &P = It->second.Prim;
        if (ArgExps.size() >= P.SourceArity) {
          std::vector<CExpPtr> Args;
          for (unsigned I = 0; I != P.SourceArity; ++I)
            Args.push_back(lowerExp(*ArgExps[I], Sc));
          CExpPtr Call = lowerPrimCall(P, std::move(Args));
          for (size_t I = P.SourceArity; I != ArgExps.size(); ++I)
            Call = CExp::app(std::move(Call), lowerExp(*ArgExps[I], Sc));
          return Call;
        }
        std::vector<CExpPtr> Partial;
        for (const Exp *A : ArgExps)
          Partial.push_back(lowerExp(*A, Sc));
        return etaExpandPrim(P, std::move(Partial));
      }
    }
    CExpPtr F = lowerExp(*Base, Sc);
    for (const Exp *A : ArgExps)
      F = CExp::app(std::move(F), lowerExp(*A, Sc));
    return F;
  }
  case ExpKind::If: {
    // Fresh names number in lowering order, so the order is spelled out:
    // right to left, else branch first, as every image was built.
    CExpPtr Else = lowerExp(*E.E2, Sc);
    CExpPtr Then = lowerExp(*E.E1, Sc);
    CExpPtr Cond = lowerExp(*E.E0, Sc);
    return CExp::ifExp(std::move(Cond), std::move(Then), std::move(Else));
  }
  case ExpKind::Case:
    return lowerCase(E, Sc);
  case ExpKind::LetVal: {
    CExpPtr Bound = lowerExp(*E.E0, Sc);
    Scope Inner = Sc;
    std::string Name = fresh(E.Name == "_" ? "w" : E.Name);
    if (E.Name != "_") {
      Binding B;
      B.K = Binding::Kind::Local;
      B.LocalName = Name;
      Inner[E.Name] = B;
    }
    return CExp::let(Name, std::move(Bound), lowerExp(*E.E1, Inner));
  }
  case ExpKind::LetFun: {
    Scope Inner = Sc;
    std::vector<CoreFun> Funs = lowerFunGroup(E.Funs, Inner);
    return CExp::letrec(std::move(Funs), lowerExp(*E.E0, Inner));
  }
  case ExpKind::Pair: {
    std::vector<CExpPtr> Args;
    Args.push_back(lowerExp(*E.E0, Sc));
    Args.push_back(lowerExp(*E.E1, Sc));
    return CExp::prim(PrimKind::MkPair, std::move(Args));
  }
  case ExpKind::AndAlso:
  case ExpKind::OrElse: {
    // Right operand first, like If's branches.
    CExpPtr Right = lowerExp(*E.E1, Sc);
    CExpPtr Left = lowerExp(*E.E0, Sc);
    if (E.Kind == ExpKind::AndAlso)
      return CExp::ifExp(std::move(Left), std::move(Right),
                         CExp::intConst(0));
    return CExp::ifExp(std::move(Left), CExp::intConst(1), std::move(Right));
  }
  case ExpKind::Prim: {
    CExpPtr L = lowerExp(*E.E0, Sc);
    CExpPtr R = lowerExp(*E.E1, Sc);
    std::vector<CExpPtr> Args;
    Args.push_back(std::move(L));
    Args.push_back(std::move(R));
    switch (E.Op) {
    case BinOp::Add:
      return CExp::prim(PrimKind::Add, std::move(Args));
    case BinOp::Sub:
      return CExp::prim(PrimKind::Sub, std::move(Args));
    case BinOp::Mul:
      return CExp::prim(PrimKind::Mul, std::move(Args));
    case BinOp::Div:
      return CExp::prim(PrimKind::Div, std::move(Args));
    case BinOp::Mod:
      return CExp::prim(PrimKind::Mod, std::move(Args));
    case BinOp::Lt:
      return CExp::prim(PrimKind::Lt, std::move(Args));
    case BinOp::Le:
      return CExp::prim(PrimKind::Le, std::move(Args));
    case BinOp::Gt:
      return CExp::prim(PrimKind::Gt, std::move(Args));
    case BinOp::Ge:
      return CExp::prim(PrimKind::Ge, std::move(Args));
    case BinOp::Eq:
      return CExp::prim(PrimKind::PolyEq, std::move(Args));
    case BinOp::Neq:
      return CExp::ifExp(CExp::prim(PrimKind::PolyEq, std::move(Args)),
                         CExp::intConst(0), CExp::intConst(1));
    case BinOp::Concat:
      return CExp::prim(PrimKind::StrConcat, std::move(Args));
    case BinOp::Cons:
      return CExp::prim(PrimKind::Cons, std::move(Args));
    }
    return nullptr;
  }
  }
  return nullptr;
}

CoreProgram Lowerer::run(std::span<const Dec> Decs) {
  // Build the main expression back to front.
  struct PendingDec {
    const Dec *D;
    std::vector<unsigned> Slots; // one per bound name
  };
  std::vector<PendingDec> Pending;
  for (const Dec &D : Decs) {
    PendingDec P;
    P.D = &D;
    if (D.K == Dec::Kind::Val) {
      P.Slots.push_back(S.NextGlobal++);
      S.GlobalNames.push_back(D.Name);
    } else {
      for (const FunBind &F : D.Funs) {
        P.Slots.push_back(S.NextGlobal++);
        S.GlobalNames.push_back(F.Name);
      }
    }
    Pending.push_back(std::move(P));
  }

  // Lower in order, threading the scope; build a continuation function
  // that wraps the remainder.
  std::function<CExpPtr(size_t, Scope)> Build = [&](size_t I,
                                                    Scope Current) -> CExpPtr {
    if (I == Pending.size()) {
      S.Scope = std::move(Current);
      return CExp::intConst(0); // main returns unit
    }
    const PendingDec &P = Pending[I];
    const Dec &D = *P.D;
    if (D.K == Dec::Kind::Val) {
      CExpPtr Bound = lowerExp(*D.Body, Current);
      Binding B;
      B.K = Binding::Kind::Global;
      B.Slot = P.Slots[0];
      Current[D.Name] = B;
      std::vector<CExpPtr> SetArgs;
      SetArgs.push_back(std::move(Bound));
      CExpPtr SetExp = CExp::prim(PrimKind::GlobalSet, std::move(SetArgs),
                                  static_cast<int32_t>(P.Slots[0]));
      return CExp::let(globalSetName(P.Slots[0]), std::move(SetExp),
                       Build(I + 1, std::move(Current)));
    }
    // Fun group: letrec, then store each closure into its global slot.
    Scope GroupScope = Current;
    std::vector<CoreFun> Funs = lowerFunGroup(D.Funs, GroupScope);
    // After the group, the names resolve to globals.
    Scope After = std::move(Current);
    for (size_t J = 0; J != D.Funs.size(); ++J) {
      Binding B;
      B.K = Binding::Kind::Global;
      B.Slot = P.Slots[J];
      After[D.Funs[J].Name] = B;
    }
    CExpPtr Body = Build(I + 1, std::move(After));
    for (size_t J = D.Funs.size(); J-- > 0;) {
      std::vector<CExpPtr> SetArgs;
      SetArgs.push_back(CExp::var(Funs[J].Name));
      CExpPtr SetExp = CExp::prim(PrimKind::GlobalSet, std::move(SetArgs),
                                  static_cast<int32_t>(P.Slots[J]));
      Body = CExp::let(globalSetName(P.Slots[J]), std::move(SetExp),
                       std::move(Body));
    }
    return CExp::letrec(std::move(Funs), std::move(Body));
  };

  CoreProgram Out;
  Out.Main = Build(0, S.Scope);
  Out.GlobalCount = S.NextGlobal;
  Out.GlobalNames = S.GlobalNames;
  return Out;
}

} // namespace

LowerState LowerState::initial() {
  LowerState S;
  for (const auto &[Name, Desc] : primDescs()) {
    Binding B;
    B.K = Binding::Kind::Prim;
    B.Prim = Desc;
    S.Scope[Name] = B;
  }
  return S;
}

Result<CoreProgram> silver::cml::lowerDecs(LowerState &State,
                                           std::span<const Dec> Decs) {
  return Lowerer(State).run(Decs);
}

Result<CoreProgram> silver::cml::lowerProgram(const Program &Prog) {
  LowerState State = LowerState::initial();
  return lowerDecs(State, Prog.Decs);
}
