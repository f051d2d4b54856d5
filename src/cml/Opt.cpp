//===- cml/Opt.cpp - Core optimisation passes --------------------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "cml/Opt.h"

#include "cml/Interp.h"

#include <algorithm>
#include <functional>
#include <map>

using namespace silver;
using namespace silver::cml;

namespace {

class Optimizer {
public:
  explicit Optimizer(const OptOptions &Options) : Options(Options) {}

  OptStats Stats;

  CExpPtr rewrite(CExpPtr E);
  unsigned renames() const { return NextRename; }

private:
  const OptOptions &Options;
  unsigned NextRename = 0;

  CExpPtr foldPrim(CExpPtr E);
  CExpPtr tryInline(CExpPtr E);
  static void substVar(CExp &E, const std::string &Name, const CExp &Value);
  static unsigned countUses(const std::string &Name, const CExp &E);
  static bool isPureExp(const CExp &E);
  CExpPtr cloneRenamed(const CExp &E,
                       std::map<std::string, std::string> &Renames);
  void replaceCalls(CExpPtr &E, const std::string &FnName,
                    const std::string &Param, const CExp &Body);
};

unsigned Optimizer::countUses(const std::string &Name, const CExp &E) {
  unsigned N = 0;
  if (E.Kind == CExpKind::Var && E.Name == Name)
    ++N;
  for (const CExpPtr &A : E.Args)
    N += countUses(Name, *A);
  for (const CoreFun &F : E.Funs)
    N += countUses(Name, *F.Body);
  return N;
}

bool Optimizer::isPureExp(const CExp &E) {
  switch (E.Kind) {
  case CExpKind::Var:
  case CExpKind::IntConst:
  case CExpKind::StrConst:
  case CExpKind::NilConst:
  case CExpKind::Fn: // closure construction allocates but has no effect
    return true;
  case CExpKind::App:
  case CExpKind::Letrec:
    return false; // calls may diverge/effect; letrec groups kept
  case CExpKind::Prim:
    if (!primIsPure(E.Prim))
      return false;
    for (const CExpPtr &A : E.Args)
      if (!isPureExp(*A))
        return false;
    return true;
  case CExpKind::If:
  case CExpKind::Let:
    for (const CExpPtr &A : E.Args)
      if (!isPureExp(*A))
        return false;
    return true;
  }
  return false;
}

CExpPtr Optimizer::cloneRenamed(const CExp &E,
                                std::map<std::string, std::string> &Renames) {
  auto Copy = std::make_unique<CExp>();
  Copy->Kind = E.Kind;
  Copy->Int = E.Int;
  Copy->Str = E.Str;
  Copy->Prim = E.Prim;
  Copy->Imm = E.Imm;

  auto FreshName = [&](const std::string &Old) {
    std::string New = Old + "@" + std::to_string(NextRename++);
    Renames[Old] = New;
    return New;
  };

  switch (E.Kind) {
  case CExpKind::Var: {
    auto It = Renames.find(E.Name);
    Copy->Name = It == Renames.end() ? E.Name : It->second;
    break;
  }
  case CExpKind::Fn: {
    std::map<std::string, std::string> Inner = Renames;
    Copy->Name = E.Name + "@" + std::to_string(NextRename++);
    Inner[E.Name] = Copy->Name;
    Copy->Args.push_back(cloneRenamed(*E.Args[0], Inner));
    return Copy;
  }
  case CExpKind::Let: {
    Copy->Args.push_back(cloneRenamed(*E.Args[0], Renames));
    std::map<std::string, std::string> Inner = Renames;
    Copy->Name = E.Name + "@" + std::to_string(NextRename++);
    Inner[E.Name] = Copy->Name;
    Copy->Args.push_back(cloneRenamed(*E.Args[1], Inner));
    return Copy;
  }
  case CExpKind::Letrec: {
    std::map<std::string, std::string> Inner = Renames;
    std::vector<std::string> NewNames;
    for (const CoreFun &F : E.Funs) {
      std::string New = F.Name + "@" + std::to_string(NextRename++);
      Inner[F.Name] = New;
      NewNames.push_back(New);
    }
    for (size_t I = 0; I != E.Funs.size(); ++I) {
      const CoreFun &F = E.Funs[I];
      std::map<std::string, std::string> FnScope = Inner;
      CoreFun NF;
      NF.Name = NewNames[I];
      NF.Param = F.Param + "@" + std::to_string(NextRename++);
      FnScope[F.Param] = NF.Param;
      NF.Body = cloneRenamed(*F.Body, FnScope);
      Copy->Funs.push_back(std::move(NF));
    }
    Copy->Args.push_back(cloneRenamed(*E.Args[0], Inner));
    return Copy;
  }
  default:
    Copy->Name = E.Name;
    break;
  }
  for (const CExpPtr &A : E.Args)
    Copy->Args.push_back(cloneRenamed(*A, Renames));
  (void)FreshName;
  return Copy;
}

/// Replaces every use of \p Name with a copy of \p Value (an atom:
/// IntConst, StrConst, NilConst, or Var).  Names are globally unique, so
/// no capture or shadowing analysis is needed.
void Optimizer::substVar(CExp &E, const std::string &Name,
                         const CExp &Value) {
  for (CExpPtr &A : E.Args) {
    if (A->Kind == CExpKind::Var && A->Name == Name) {
      A = Value.clone();
      continue;
    }
    substVar(*A, Name, Value);
  }
  for (CoreFun &F : E.Funs)
    substVar(*F.Body, Name, Value);
}

/// Rewrites every saturated call `(FnName arg)` in \p E into an inlined
/// copy of \p Body with \p Param bound to the argument.
void Optimizer::replaceCalls(CExpPtr &E, const std::string &FnName,
                             const std::string &Param, const CExp &Body) {
  for (CExpPtr &A : E->Args)
    replaceCalls(A, FnName, Param, Body);
  for (CoreFun &F : E->Funs)
    replaceCalls(F.Body, FnName, Param, Body);
  if (E->Kind == CExpKind::App && E->Args[0]->Kind == CExpKind::Var &&
      E->Args[0]->Name == FnName) {
    std::string P = Param + "@" + std::to_string(NextRename++);
    // Clone the body, renaming its parameter and every internal binder.
    std::map<std::string, std::string> Renames{{Param, P}};
    CExpPtr Inlined = cloneRenamed(Body, Renames);
    CExpPtr Arg = std::move(E->Args[1]);
    E = CExp::let(P, std::move(Arg), std::move(Inlined));
    ++Stats.InlinedCalls;
  }
}

CExpPtr Optimizer::foldPrim(CExpPtr E) {
  auto IsInt = [&](unsigned I) {
    return E->Args[I]->Kind == CExpKind::IntConst;
  };
  auto IsStr = [&](unsigned I) {
    return E->Args[I]->Kind == CExpKind::StrConst;
  };
  auto IntV = [&](unsigned I) { return E->Args[I]->Int; };

  switch (E->Prim) {
  case PrimKind::Add:
  case PrimKind::Sub:
  case PrimKind::Mul:
  case PrimKind::Lt:
  case PrimKind::Le:
  case PrimKind::Gt:
  case PrimKind::Ge: {
    if (!IsInt(0) || !IsInt(1))
      return E;
    int64_t A = IntV(0), B = IntV(1);
    int32_t R = 0;
    switch (E->Prim) {
    case PrimKind::Add:
      R = wrap31(A + B);
      break;
    case PrimKind::Sub:
      R = wrap31(A - B);
      break;
    case PrimKind::Mul:
      R = wrap31(A * B);
      break;
    case PrimKind::Lt:
      R = A < B;
      break;
    case PrimKind::Le:
      R = A <= B;
      break;
    case PrimKind::Gt:
      R = A > B;
      break;
    case PrimKind::Ge:
      R = A >= B;
      break;
    default:
      break;
    }
    ++Stats.FoldedConstants;
    return CExp::intConst(R);
  }
  case PrimKind::Div:
  case PrimKind::Mod: {
    if (!IsInt(0) || !IsInt(1) || IntV(1) == 0)
      return E;
    int64_t A = IntV(0), B = IntV(1);
    int64_t Q = A / B;
    int64_t M = A % B;
    if (M != 0 && ((A < 0) != (B < 0))) {
      --Q;
      M += B;
    }
    ++Stats.FoldedConstants;
    return CExp::intConst(wrap31(E->Prim == PrimKind::Div ? Q : M));
  }
  case PrimKind::PolyEq:
    if (IsInt(0) && IsInt(1)) {
      ++Stats.FoldedConstants;
      return CExp::intConst(IntV(0) == IntV(1));
    }
    if (IsStr(0) && IsStr(1)) {
      ++Stats.FoldedConstants;
      return CExp::intConst(E->Args[0]->Str == E->Args[1]->Str);
    }
    return E;
  case PrimKind::StrSize:
    if (!IsStr(0))
      return E;
    ++Stats.FoldedConstants;
    return CExp::intConst(static_cast<int32_t>(E->Args[0]->Str.size()));
  case PrimKind::StrConcat:
    if (!IsStr(0) || !IsStr(1))
      return E;
    ++Stats.FoldedConstants;
    return CExp::strConst(E->Args[0]->Str + E->Args[1]->Str);
  case PrimKind::Strcmp: {
    if (!IsStr(0) || !IsStr(1))
      return E;
    int C = E->Args[0]->Str.compare(E->Args[1]->Str);
    ++Stats.FoldedConstants;
    return CExp::intConst(C < 0 ? -1 : C > 0 ? 1 : 0);
  }
  case PrimKind::Ord:
    if (!IsInt(0))
      return E;
    ++Stats.FoldedConstants;
    return CExp::intConst(IntV(0));
  case PrimKind::IsNil:
    if (E->Args[0]->Kind != CExpKind::NilConst)
      return E;
    ++Stats.FoldedConstants;
    return CExp::intConst(1);
  default:
    return E;
  }
}

CExpPtr Optimizer::rewrite(CExpPtr E) {
  // Rewrite children first.
  for (CExpPtr &A : E->Args)
    A = rewrite(std::move(A));
  for (CoreFun &F : E->Funs)
    F.Body = rewrite(std::move(F.Body));

  if (Options.ConstantFold) {
    if (E->Kind == CExpKind::Prim)
      E = foldPrim(std::move(E));
    if (E->Kind == CExpKind::If &&
        E->Args[0]->Kind == CExpKind::IntConst) {
      ++Stats.FoldedConstants;
      return std::move(E->Args[0]->Int ? E->Args[1] : E->Args[2]);
    }
  }

  if (Options.Inline && E->Kind == CExpKind::Let &&
      E->Args[0]->Kind == CExpKind::Fn) {
    const std::string &FnName = E->Name;
    CExp &Body = *E->Args[1];
    unsigned Uses = countUses(FnName, Body);
    // Inline when the lambda is only used as a call head and is either
    // used once or small.  Check the escape condition: every use is an
    // App head.
    std::function<unsigned(const CExp &)> CallHeadUses =
        [&](const CExp &X) -> unsigned {
      unsigned N = 0;
      if (X.Kind == CExpKind::App && X.Args[0]->Kind == CExpKind::Var &&
          X.Args[0]->Name == FnName)
        N += 1 + CallHeadUses(*X.Args[1]);
      else
        for (const CExpPtr &A : X.Args)
          N += CallHeadUses(*A);
      for (const CoreFun &F : X.Funs)
        N += CallHeadUses(*F.Body);
      return N;
    };
    unsigned Heads = CallHeadUses(Body);
    bool SmallEnough = E->Args[0]->Args[0]->size() <= Options.InlineSizeLimit;
    if (Uses > 0 && Heads == Uses && (Uses == 1 || SmallEnough)) {
      (void)Body;
      replaceCalls(E->Args[1], FnName, E->Args[0]->Name,
                   *E->Args[0]->Args[0]);
      // The lambda may now be dead; DCE below cleans it up.
    }
  }

  if (Options.DeadLetElim && E->Kind == CExpKind::Let &&
      isPureExp(*E->Args[0]) && countUses(E->Name, *E->Args[1]) == 0) {
    ++Stats.RemovedLets;
    return std::move(E->Args[1]);
  }

  // Constant/copy propagation: a let binding an atom is substituted away
  // (constant folding then sees literal operands).
  if (Options.ConstantFold && E->Kind == CExpKind::Let) {
    CExpKind K = E->Args[0]->Kind;
    if (K == CExpKind::IntConst || K == CExpKind::NilConst ||
        K == CExpKind::Var ||
        (K == CExpKind::StrConst && E->Args[0]->Str.size() <= 64)) {
      if (K == CExpKind::Var && E->Args[0]->Name == E->Name)
        return E; // degenerate self-alias; leave it
      CExpPtr Body = std::move(E->Args[1]);
      if (countUses(E->Name, *Body) != 0) {
        if (Body->Kind == CExpKind::Var && Body->Name == E->Name)
          return std::move(E->Args[0]);
        substVar(*Body, E->Name, *E->Args[0]);
        ++Stats.FoldedConstants;
      } else {
        ++Stats.RemovedLets;
      }
      return Body;
    }
  }
  return E;
}

} // namespace

void silver::cml::optimizeCore(CoreProgram &Prog, const OptOptions &Options,
                               OptState &State) {
  Optimizer Opt(Options);
  if (!Options.ConstantFold && !Options.DeadLetElim && !Options.Inline)
    return;
  for (unsigned Round = 0; Round != 4; ++Round) {
    OptStats Before = Opt.Stats;
    Prog.Main = Opt.rewrite(std::move(Prog.Main));
    bool Changed = Before.FoldedConstants != Opt.Stats.FoldedConstants ||
                   Before.RemovedLets != Opt.Stats.RemovedLets ||
                   Before.InlinedCalls != Opt.Stats.InlinedCalls;
    if (Changed)
      State.ChangedRounds = std::max(State.ChangedRounds, Round + 1);
    else if (Round >= State.ChangedRounds)
      break;
  }
  State.Stats.FoldedConstants += Opt.Stats.FoldedConstants;
  State.Stats.RemovedLets += Opt.Stats.RemovedLets;
  State.Stats.InlinedCalls += Opt.Stats.InlinedCalls;
  State.Renames += Opt.renames();
}

OptStats silver::cml::optimizeCore(CoreProgram &Prog,
                                   const OptOptions &Options) {
  OptState State;
  optimizeCore(Prog, Options, State);
  return State.Stats;
}
