//===- cml/Interp.cpp - MiniCake reference interpreter ----------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "cml/Interp.h"

#include "cml/Infer.h"
#include "cml/Runtime.h"

#include <algorithm>
#include <cassert>
#include <memory>

using namespace silver;
using namespace silver::cml;

namespace {

struct Value;
using ValueRef = std::shared_ptr<Value>;

struct EnvNode;
using EnvRef = std::shared_ptr<EnvNode>;

/// Runtime values.
struct Value {
  enum class Kind : uint8_t {
    Int,     // also char and bool (0/1) and unit (0); types keep them apart
    Str,
    Nil,
    Cons,
    Pair,
    Closure, // fn / fun
    Prim,    // possibly partially applied primitive
  };
  Kind K = Kind::Int;
  int32_t Int = 0;
  std::string Str;
  ValueRef A, B;                 // Cons / Pair
  // Closure:
  const Exp *FnBody = nullptr;   // for fn-closures
  std::string Param;
  EnvRef Env;
  const FunBind *Fun = nullptr;  // for fun-group closures (curried entry)
  size_t AppliedParams = 0;      // how many params already bound (Fun)
  // Prim:
  std::string PrimName;
  unsigned PrimArity = 0;
  std::vector<ValueRef> PrimArgs;

  Value() = default;
  Value(const Value &) = default;
  Value &operator=(const Value &) = default;

  // Long cons chains must not be torn down by the default recursive
  // shared_ptr destruction: one frame per cell overflows the stack on
  // lists of ~10^5 elements.  Drain solely-owned children iteratively.
  ~Value() {
    std::vector<ValueRef> Pending;
    auto Take = [&Pending](ValueRef &R) {
      if (R && R.use_count() == 1)
        Pending.push_back(std::move(R));
      R.reset();
    };
    Take(A);
    Take(B);
    while (!Pending.empty()) {
      ValueRef V = std::move(Pending.back());
      Pending.pop_back();
      Take(V->A);
      Take(V->B);
      for (ValueRef &Arg : V->PrimArgs)
        Take(Arg);
    }
  }
};

ValueRef makeInt(int32_t V) {
  auto R = std::make_shared<Value>();
  R->K = Value::Kind::Int;
  R->Int = V;
  return R;
}
ValueRef makeStr(std::string S) {
  auto R = std::make_shared<Value>();
  R->K = Value::Kind::Str;
  R->Str = std::move(S);
  return R;
}
ValueRef makeNil() {
  auto R = std::make_shared<Value>();
  R->K = Value::Kind::Nil;
  return R;
}
ValueRef makeCons(ValueRef H, ValueRef T) {
  auto R = std::make_shared<Value>();
  R->K = Value::Kind::Cons;
  R->A = std::move(H);
  R->B = std::move(T);
  return R;
}
ValueRef makePair(ValueRef A, ValueRef B) {
  auto R = std::make_shared<Value>();
  R->K = Value::Kind::Pair;
  R->A = std::move(A);
  R->B = std::move(B);
  return R;
}

/// Environment: a persistent association list, plus recursive frames that
/// lazily build closures for fun groups (this ties the recursive knot
/// without cyclic shared_ptr ownership of values).
struct EnvNode {
  std::string Name;
  ValueRef V;
  EnvRef Next;
  // Recursive frame: when Funs is non-null, lookups of any name in the
  // group construct a fresh closure whose environment is this node.
  const std::vector<FunBind> *Funs = nullptr;
};

EnvRef bindValue(EnvRef Env, std::string Name, ValueRef V) {
  auto N = std::make_shared<EnvNode>();
  N->Name = std::move(Name);
  N->V = std::move(V);
  N->Next = std::move(Env);
  return N;
}

EnvRef bindFunGroup(EnvRef Env, const std::vector<FunBind> &Funs) {
  auto N = std::make_shared<EnvNode>();
  N->Funs = &Funs;
  N->Next = std::move(Env);
  return N;
}

/// Evaluation outcome: a value, a program trap (exit), or a hard error
/// (interpreter bug or step-budget exhaustion).
struct Outcome {
  enum class Kind : uint8_t { Value, Trap, Error } K = Kind::Value;
  ValueRef V;
  uint8_t TrapCode = 0;
  std::string ErrorMessage;

  static Outcome value(ValueRef V) {
    Outcome O;
    O.V = std::move(V);
    return O;
  }
  static Outcome trap(uint8_t Code) {
    Outcome O;
    O.K = Kind::Trap;
    O.TrapCode = Code;
    return O;
  }
  static Outcome error(std::string Message) {
    Outcome O;
    O.K = Kind::Error;
    O.ErrorMessage = std::move(Message);
    return O;
  }
  bool ok() const { return K == Kind::Value; }
};

class Machine {
public:
  Machine(ffi::BasisFfi &Ffi, uint64_t MaxSteps)
      : Ffi(Ffi), MaxSteps(MaxSteps) {}

  Outcome evalTop(const Exp &E, EnvRef Env) { return eval(&E, std::move(Env)); }
  uint64_t Steps = 0;

  EnvRef bindPrims(EnvRef Env);

private:
  ffi::BasisFfi &Ffi;
  uint64_t MaxSteps;

  Outcome eval(const Exp *E, EnvRef Env);
  Outcome lookup(const std::string &Name, const EnvRef &Env);
  Outcome applyPrim(const std::string &Name, std::vector<ValueRef> &Args);
  bool matchPat(const Pat &P, const ValueRef &V, EnvRef &Env);
  static bool valueEquals(const ValueRef &A, const ValueRef &B);
};

/// The 8-byte big-endian fd word the runtime passes as conf.
static std::vector<uint8_t> fdConf(uint64_t Fd) {
  std::vector<uint8_t> Conf(8);
  Conf[7] = static_cast<uint8_t>(Fd);
  return Conf;
}

EnvRef Machine::bindPrims(EnvRef Env) {
  for (const auto &[Name, Info] : primitiveSchemes()) {
    auto P = std::make_shared<Value>();
    P->K = Value::Kind::Prim;
    P->PrimName = Name;
    P->PrimArity = Info.Arity;
    Env = bindValue(Env, Name, std::move(P));
  }
  return Env;
}

Outcome Machine::lookup(const std::string &Name, const EnvRef &Env) {
  for (EnvRef Cur = Env; Cur; Cur = Cur->Next) {
    if (Cur->Funs) {
      for (const FunBind &F : *Cur->Funs) {
        if (F.Name != Name)
          continue;
        auto C = std::make_shared<Value>();
        C->K = Value::Kind::Closure;
        C->Fun = &F;
        C->AppliedParams = 0;
        // The closure's environment is the recursive frame itself, so
        // the body sees the group plus everything in scope at the
        // definition — not at the lookup site.
        C->Env = Cur;
        return Outcome::value(std::move(C));
      }
      continue;
    }
    if (Cur->Name == Name)
      return Outcome::value(Cur->V);
  }
  return Outcome::error("unbound variable '" + Name + "' at runtime");
}

bool Machine::valueEquals(const ValueRef &A, const ValueRef &B) {
  if (A->K != B->K)
    return false;
  switch (A->K) {
  case Value::Kind::Int:
    return A->Int == B->Int;
  case Value::Kind::Str:
    return A->Str == B->Str;
  case Value::Kind::Nil:
    return true;
  case Value::Kind::Cons:
  case Value::Kind::Pair:
    return valueEquals(A->A, B->A) && valueEquals(A->B, B->B);
  case Value::Kind::Closure:
  case Value::Kind::Prim:
    return A == B; // rejected by the type checker; physical fallback
  }
  return false;
}

bool Machine::matchPat(const Pat &P, const ValueRef &V, EnvRef &Env) {
  switch (P.Kind) {
  case PatKind::Wild:
    return true;
  case PatKind::Var:
    Env = bindValue(Env, P.Name, V);
    return true;
  case PatKind::IntLit:
  case PatKind::CharLit:
  case PatKind::BoolLit:
    return V->K == Value::Kind::Int && V->Int == P.Int;
  case PatKind::UnitLit:
    return true;
  case PatKind::StrLit:
    return V->K == Value::Kind::Str && V->Str == P.Str;
  case PatKind::Nil:
    return V->K == Value::Kind::Nil;
  case PatKind::Cons:
    return V->K == Value::Kind::Cons && matchPat(*P.Sub0, V->A, Env) &&
           matchPat(*P.Sub1, V->B, Env);
  case PatKind::Pair:
    return V->K == Value::Kind::Pair && matchPat(*P.Sub0, V->A, Env) &&
           matchPat(*P.Sub1, V->B, Env);
  }
  return false;
}

Outcome Machine::applyPrim(const std::string &Name,
                           std::vector<ValueRef> &Args) {
  auto Str = [&](unsigned I) -> const std::string & { return Args[I]->Str; };
  auto Int = [&](unsigned I) { return Args[I]->Int; };

  if (Name == "str_size")
    return Outcome::value(makeInt(static_cast<int32_t>(Str(0).size())));
  if (Name == "str_sub") {
    int32_t I = Int(1);
    if (I < 0 || static_cast<size_t>(I) >= Str(0).size())
      return Outcome::trap(TrapSubscriptCode);
    return Outcome::value(makeInt(static_cast<unsigned char>(Str(0)[I])));
  }
  if (Name == "substring") {
    int32_t Start = Int(1);
    int32_t Len = Int(2);
    if (Start < 0 || Len < 0 ||
        static_cast<size_t>(Start) + static_cast<size_t>(Len) >
            Str(0).size())
      return Outcome::trap(TrapSubscriptCode);
    return Outcome::value(makeStr(Str(0).substr(Start, Len)));
  }
  if (Name == "strcmp") {
    int C = Str(0).compare(Str(1));
    return Outcome::value(makeInt(C < 0 ? -1 : C > 0 ? 1 : 0));
  }
  if (Name == "concat_list") {
    std::string Out;
    for (Value *N = Args[0].get(); N->K == Value::Kind::Cons;
         N = N->B.get())
      Out += N->A->Str;
    return Outcome::value(makeStr(std::move(Out)));
  }
  if (Name == "implode") {
    std::string Out;
    for (Value *N = Args[0].get(); N->K == Value::Kind::Cons;
         N = N->B.get())
      Out.push_back(static_cast<char>(N->A->Int));
    return Outcome::value(makeStr(std::move(Out)));
  }
  if (Name == "ord")
    return Outcome::value(makeInt(Int(0)));
  if (Name == "chr") {
    if (Int(0) < 0 || Int(0) > 255)
      return Outcome::trap(TrapSubscriptCode);
    return Outcome::value(makeInt(Int(0)));
  }
  if (Name == "print" || Name == "print_err") {
    const std::string &S = Str(0);
    for (size_t Off = 0; Off < S.size(); Off += IoChunkBytes) {
      size_t K = std::min<size_t>(S.size() - Off, IoChunkBytes);
      std::vector<uint8_t> Bytes(K + 4);
      ffi::u16ToBytes(static_cast<uint16_t>(K), Bytes.data());
      std::copy_n(S.begin() + Off, K, Bytes.begin() + 4);
      Ffi.call("write",
               fdConf(Name == "print" ? ffi::StdoutFd : ffi::StderrFd), Bytes);
    }
    return Outcome::value(makeInt(0));
  }
  if (Name == "read_chunk") {
    size_t K = std::min<size_t>(std::max(Int(0), 0), IoChunkBytes);
    std::vector<uint8_t> Bytes(K + 4);
    ffi::u16ToBytes(static_cast<uint16_t>(K), Bytes.data());
    ffi::FfiResult R = Ffi.call("read", fdConf(ffi::StdinFd), Bytes);
    size_t N = std::min<size_t>(ffi::bytesToU16(R.Bytes.data() + 1), K);
    return Outcome::value(
        makeStr(std::string(R.Bytes.begin() + 4, R.Bytes.begin() + 4 + N)));
  }
  if (Name == "arg_count") {
    ffi::FfiResult R = Ffi.call("get_arg_count", {}, {0, 0});
    return Outcome::value(makeInt(ffi::bytesToU16(R.Bytes.data())));
  }
  if (Name == "arg_n") {
    int32_t I = Int(0);
    if (I < 0 || static_cast<size_t>(I) >= Ffi.CommandLine.size())
      return Outcome::trap(TrapSubscriptCode);
    std::vector<uint8_t> Bytes(2);
    ffi::u16ToBytes(static_cast<uint16_t>(I), Bytes.data());
    size_t Len =
        ffi::bytesToU16(Ffi.call("get_arg_length", {}, Bytes).Bytes.data());
    Bytes.resize(Len + 2);
    ffi::FfiResult R = Ffi.call("get_arg", {}, Bytes);
    return Outcome::value(
        makeStr(std::string(R.Bytes.begin(), R.Bytes.begin() + Len)));
  }
  if (Name == "exit")
    return Outcome::trap(static_cast<uint8_t>(Int(0)));
  return Outcome::error("unknown primitive '" + Name + "'");
}

Outcome Machine::eval(const Exp *E, EnvRef Env) {
  for (;;) {
    if (MaxSteps && ++Steps > MaxSteps)
      return Outcome::error("interpreter step budget exhausted");
    if (!MaxSteps)
      ++Steps;

    switch (E->Kind) {
    case ExpKind::Var: {
      Outcome O = lookup(E->Name, Env);
      return O;
    }
    case ExpKind::IntLit:
      return Outcome::value(makeInt(wrap31(E->Int)));
    case ExpKind::CharLit:
    case ExpKind::BoolLit:
      return Outcome::value(makeInt(E->Int));
    case ExpKind::UnitLit:
      return Outcome::value(makeInt(0));
    case ExpKind::StrLit:
      return Outcome::value(makeStr(E->Str));
    case ExpKind::Nil:
      return Outcome::value(makeNil());
    case ExpKind::Fn: {
      auto C = std::make_shared<Value>();
      C->K = Value::Kind::Closure;
      C->FnBody = E->E0.get();
      C->Param = E->Name;
      C->Env = Env;
      return Outcome::value(std::move(C));
    }
    case ExpKind::Pair: {
      Outcome A = eval(E->E0.get(), Env);
      if (!A.ok())
        return A;
      Outcome B = eval(E->E1.get(), Env);
      if (!B.ok())
        return B;
      return Outcome::value(makePair(std::move(A.V), std::move(B.V)));
    }
    case ExpKind::If: {
      Outcome C = eval(E->E0.get(), Env);
      if (!C.ok())
        return C;
      E = C.V->Int ? E->E1.get() : E->E2.get();
      continue; // tail position
    }
    case ExpKind::AndAlso: {
      Outcome L = eval(E->E0.get(), Env);
      if (!L.ok())
        return L;
      if (!L.V->Int)
        return Outcome::value(makeInt(0));
      E = E->E1.get();
      continue;
    }
    case ExpKind::OrElse: {
      Outcome L = eval(E->E0.get(), Env);
      if (!L.ok())
        return L;
      if (L.V->Int)
        return Outcome::value(makeInt(1));
      E = E->E1.get();
      continue;
    }
    case ExpKind::LetVal: {
      Outcome Bound = eval(E->E0.get(), Env);
      if (!Bound.ok())
        return Bound;
      if (E->Name != "_")
        Env = bindValue(Env, E->Name, std::move(Bound.V));
      E = E->E1.get();
      continue;
    }
    case ExpKind::LetFun: {
      Env = bindFunGroup(Env, E->Funs);
      E = E->E0.get();
      continue;
    }
    case ExpKind::Case: {
      Outcome Scrut = eval(E->E0.get(), Env);
      if (!Scrut.ok())
        return Scrut;
      const Exp *Chosen = nullptr;
      for (const MatchArm &Arm : E->Arms) {
        EnvRef ArmEnv = Env;
        if (matchPat(*Arm.Pattern, Scrut.V, ArmEnv)) {
          Env = std::move(ArmEnv);
          Chosen = Arm.Body.get();
          break;
        }
      }
      if (!Chosen)
        return Outcome::trap(TrapMatchCode);
      E = Chosen;
      continue;
    }
    case ExpKind::Prim: {
      Outcome L = eval(E->E0.get(), Env);
      if (!L.ok())
        return L;
      Outcome R = eval(E->E1.get(), Env);
      if (!R.ok())
        return R;
      switch (E->Op) {
      case BinOp::Add:
        return Outcome::value(
            makeInt(wrap31(int64_t(L.V->Int) + R.V->Int)));
      case BinOp::Sub:
        return Outcome::value(
            makeInt(wrap31(int64_t(L.V->Int) - R.V->Int)));
      case BinOp::Mul:
        return Outcome::value(
            makeInt(wrap31(int64_t(L.V->Int) * R.V->Int)));
      case BinOp::Div: {
        if (R.V->Int == 0)
          return Outcome::trap(TrapDivCode);
        // SML div rounds toward negative infinity.
        int64_t A = L.V->Int, B = R.V->Int;
        int64_t Q = A / B;
        if ((A % B != 0) && ((A < 0) != (B < 0)))
          --Q;
        return Outcome::value(makeInt(wrap31(Q)));
      }
      case BinOp::Mod: {
        if (R.V->Int == 0)
          return Outcome::trap(TrapDivCode);
        int64_t A = L.V->Int, B = R.V->Int;
        int64_t M = A % B;
        if (M != 0 && ((A < 0) != (B < 0)))
          M += B;
        return Outcome::value(makeInt(wrap31(M)));
      }
      case BinOp::Lt:
        return Outcome::value(makeInt(L.V->Int < R.V->Int));
      case BinOp::Le:
        return Outcome::value(makeInt(L.V->Int <= R.V->Int));
      case BinOp::Gt:
        return Outcome::value(makeInt(L.V->Int > R.V->Int));
      case BinOp::Ge:
        return Outcome::value(makeInt(L.V->Int >= R.V->Int));
      case BinOp::Eq:
        return Outcome::value(makeInt(valueEquals(L.V, R.V)));
      case BinOp::Neq:
        return Outcome::value(makeInt(!valueEquals(L.V, R.V)));
      case BinOp::Concat:
        return Outcome::value(makeStr(L.V->Str + R.V->Str));
      case BinOp::Cons:
        return Outcome::value(makeCons(std::move(L.V), std::move(R.V)));
      }
      return Outcome::error("unhandled operator");
    }
    case ExpKind::App: {
      Outcome F = eval(E->E0.get(), Env);
      if (!F.ok())
        return F;
      Outcome Arg = eval(E->E1.get(), Env);
      if (!Arg.ok())
        return Arg;
      ValueRef Fn = std::move(F.V);

      if (Fn->K == Value::Kind::Prim) {
        if (Fn->PrimArgs.size() + 1 < Fn->PrimArity) {
          auto Partial = std::make_shared<Value>(*Fn);
          Partial->PrimArgs.push_back(std::move(Arg.V));
          return Outcome::value(std::move(Partial));
        }
        std::vector<ValueRef> Args = Fn->PrimArgs;
        Args.push_back(std::move(Arg.V));
        return applyPrim(Fn->PrimName, Args);
      }
      if (Fn->K != Value::Kind::Closure)
        return Outcome::error("application of a non-function value");

      if (Fn->Fun) {
        // Curried fun-group closure.
        size_t Bound = Fn->AppliedParams;
        const FunBind &FB = *Fn->Fun;
        EnvRef CallEnv = Fn->Env;
        // Re-bind the previously applied parameters (stored in Env chain
        // by the partial-application copies below).
        if (Bound + 1 < FB.Params.size()) {
          auto Partial = std::make_shared<Value>(*Fn);
          if (FB.Params[Bound] != "_")
            Partial->Env =
                bindValue(Partial->Env, FB.Params[Bound], std::move(Arg.V));
          Partial->AppliedParams = Bound + 1;
          return Outcome::value(std::move(Partial));
        }
        if (FB.Params[Bound] != "_")
          CallEnv = bindValue(CallEnv, FB.Params[Bound], std::move(Arg.V));
        Env = std::move(CallEnv);
        E = FB.Body.get();
        continue; // tail call
      }

      EnvRef CallEnv = Fn->Env;
      if (Fn->Param != "_")
        CallEnv = bindValue(CallEnv, Fn->Param, std::move(Arg.V));
      Env = std::move(CallEnv);
      E = Fn->FnBody;
      continue; // tail call
    }
    }
  }
}

} // namespace

RunOutput
silver::cml::interpretProgram(const Program &Prog,
                              const std::vector<std::string> &CommandLine,
                              const std::string &StdinData,
                              uint64_t MaxSteps) {
  RunOutput Out;
  Out.Ffi = ffi::BasisFfi(CommandLine, ffi::Filesystem::withStdin(StdinData));
  Machine M(Out.Ffi, MaxSteps);
  EnvRef Env = M.bindPrims(nullptr);

  for (const Dec &D : Prog.Decs) {
    if (D.K == Dec::Kind::Val) {
      Outcome O = M.evalTop(*D.Body, Env);
      if (O.K == Outcome::Kind::Error) {
        Out.ErrorMessage = O.ErrorMessage;
        return Out;
      }
      if (O.K == Outcome::Kind::Trap) {
        Out.Ok = true;
        Out.ExitCode = O.TrapCode;
        Out.Steps = M.Steps;
        return Out;
      }
      if (D.Name != "_")
        Env = bindValue(Env, D.Name, std::move(O.V));
    } else {
      Env = bindFunGroup(Env, D.Funs);
    }
  }
  Out.Ok = true;
  Out.Steps = M.Steps;
  return Out;
}
