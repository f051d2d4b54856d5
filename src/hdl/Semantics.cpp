//===- hdl/Semantics.cpp - Operational semantics for the subset --------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "hdl/Semantics.h"

#include <cassert>

using namespace silver;
using namespace silver::hdl;

static uint64_t maskTo(unsigned Width, uint64_t Bits) {
  return Width >= 64 ? Bits : (Bits & ((uint64_t(1) << Width) - 1));
}

static int64_t asSignedVec(const VValue &V) {
  if (V.Width == 0)
    return 0;
  uint64_t Sign = uint64_t(1) << (V.Width - 1);
  uint64_t Bits = V.Bits;
  return static_cast<int64_t>((Bits ^ Sign) - Sign);
}

// --- evaluation --------------------------------------------------------------

namespace {

/// Read view during process execution: the process's blocking overlay in
/// front of the cycle-start state.
struct ReadView {
  const SimState &Base;
  const std::map<std::string, VValue> *Overlay = nullptr;

  const VValue *lookup(const std::string &Name) const {
    if (Overlay) {
      auto It = Overlay->find(Name);
      if (It != Overlay->end())
        return &It->second;
    }
    auto It = Base.Vars.find(Name);
    return It == Base.Vars.end() ? nullptr : &It->second;
  }
};

Result<VValue> eval(const VExp &E, const ReadView &View) {
  switch (E.Kind) {
  case VExpKind::ConstBool:
    return VValue::boolean(E.Bool);
  case VExpKind::ConstVec:
    return VValue::vec(E.Width, E.Bits);
  case VExpKind::Var: {
    const VValue *V = View.lookup(E.Name);
    if (!V)
      return Error("read of undeclared variable '" + E.Name + "'");
    return *V;
  }
  case VExpKind::MemRead: {
    const VValue *M = View.lookup(E.Name);
    if (!M || M->K != VValue::Kind::Mem)
      return Error("memory read of non-memory '" + E.Name + "'");
    Result<VValue> Idx = eval(*E.Args[0], View);
    if (!Idx)
      return Idx;
    if (Idx->Bits >= M->Elems.size())
      return Error("memory index out of range in '" + E.Name + "'");
    return VValue::vec(M->Width, M->Elems[Idx->Bits]);
  }
  case VExpKind::Binary: {
    Result<VValue> A = eval(*E.Args[0], View);
    if (!A)
      return A;
    Result<VValue> B = eval(*E.Args[1], View);
    if (!B)
      return B;
    unsigned W = A->Width;
    switch (E.BOp) {
    case BinaryOp::Add:
      return VValue::vec(W, maskTo(W, A->Bits + B->Bits));
    case BinaryOp::Sub:
      return VValue::vec(W, maskTo(W, A->Bits - B->Bits));
    case BinaryOp::Mul:
      return VValue::vec(W, maskTo(W, A->Bits * B->Bits));
    case BinaryOp::And:
      if (A->K == VValue::Kind::Bool)
        return VValue::boolean(A->B && B->B);
      return VValue::vec(W, A->Bits & B->Bits);
    case BinaryOp::Or:
      if (A->K == VValue::Kind::Bool)
        return VValue::boolean(A->B || B->B);
      return VValue::vec(W, A->Bits | B->Bits);
    case BinaryOp::Xor:
      if (A->K == VValue::Kind::Bool)
        return VValue::boolean(A->B != B->B);
      return VValue::vec(W, A->Bits ^ B->Bits);
    case BinaryOp::Eq:
      if (A->K == VValue::Kind::Bool)
        return VValue::boolean(A->B == B->B);
      return VValue::boolean(A->Bits == B->Bits);
    case BinaryOp::LtU:
      return VValue::boolean(A->Bits < B->Bits);
    case BinaryOp::LtS:
      return VValue::boolean(asSignedVec(*A) < asSignedVec(*B));
    case BinaryOp::Shl: {
      uint64_t Amount = B->Bits;
      if (Amount >= W)
        return VValue::vec(W, 0);
      return VValue::vec(W, maskTo(W, A->Bits << Amount));
    }
    case BinaryOp::ShrL: {
      uint64_t Amount = B->Bits;
      if (Amount >= W)
        return VValue::vec(W, 0);
      return VValue::vec(W, A->Bits >> Amount);
    }
    case BinaryOp::ShrA: {
      uint64_t Amount = B->Bits;
      int64_t S = asSignedVec(*A);
      if (Amount >= W)
        return VValue::vec(W, S < 0 ? ~uint64_t(0) : 0);
      return VValue::vec(W, static_cast<uint64_t>(S >> Amount));
    }
    }
    return Error("unhandled binary operator");
  }
  case VExpKind::Unary: {
    Result<VValue> A = eval(*E.Args[0], View);
    if (!A)
      return A;
    if (E.UOp == UnaryOp::Not) {
      if (A->K == VValue::Kind::Bool)
        return VValue::boolean(!A->B);
      return VValue::vec(A->Width, ~A->Bits);
    }
    return VValue::boolean(A->K == VValue::Kind::Bool ? !A->B
                                                      : A->Bits == 0);
  }
  case VExpKind::Slice: {
    Result<VValue> A = eval(*E.Args[0], View);
    if (!A)
      return A;
    unsigned W = E.Hi - E.Lo + 1;
    return VValue::vec(W, A->Bits >> E.Lo);
  }
  case VExpKind::Concat: {
    Result<VValue> Hi = eval(*E.Args[0], View);
    if (!Hi)
      return Hi;
    Result<VValue> Lo = eval(*E.Args[1], View);
    if (!Lo)
      return Lo;
    return VValue::vec(Hi->Width + Lo->Width,
                       (Hi->Bits << Lo->Width) | Lo->Bits);
  }
  case VExpKind::Cond: {
    Result<VValue> C = eval(*E.Args[0], View);
    if (!C)
      return C;
    bool Taken = C->K == VValue::Kind::Bool ? C->B : C->Bits != 0;
    return eval(*E.Args[Taken ? 1 : 2], View);
  }
  case VExpKind::ZeroExt: {
    Result<VValue> A = eval(*E.Args[0], View);
    if (!A)
      return A;
    return VValue::vec(E.Width, maskTo(E.Width, A->Bits));
  }
  case VExpKind::SignExt: {
    Result<VValue> A = eval(*E.Args[0], View);
    if (!A)
      return A;
    return VValue::vec(E.Width,
                       maskTo(E.Width, static_cast<uint64_t>(asSignedVec(*A))));
  }
  case VExpKind::BoolToVec: {
    Result<VValue> A = eval(*E.Args[0], View);
    if (!A)
      return A;
    return VValue::vec(1, A->K == VValue::Kind::Bool ? (A->B ? 1 : 0)
                                                     : (A->Bits & 1));
  }
  case VExpKind::VecToBool: {
    Result<VValue> A = eval(*E.Args[0], View);
    if (!A)
      return A;
    return VValue::boolean(A->Bits != 0);
  }
  }
  return Error("unhandled expression");
}

/// Pending non-blocking write.
struct NbWrite {
  std::string Name;
  bool IsMem = false;
  uint64_t Index = 0;
  VValue Value;
};

Result<void> execStmt(const VStmt &S, const SimState &Base,
                      std::map<std::string, VValue> &Overlay,
                      std::vector<NbWrite> &Queue) {
  ReadView View{Base, &Overlay};
  switch (S.Kind) {
  case VStmtKind::Block:
    for (const VStmtPtr &Sub : S.Stmts)
      if (Result<void> R = execStmt(*Sub, Base, Overlay, Queue); !R)
        return R;
    return {};
  case VStmtKind::If: {
    Result<VValue> C = eval(*S.Cond, View);
    if (!C)
      return C.error();
    bool Taken = C->K == VValue::Kind::Bool ? C->B : C->Bits != 0;
    if (Taken)
      return execStmt(*S.Then, Base, Overlay, Queue);
    if (S.Else)
      return execStmt(*S.Else, Base, Overlay, Queue);
    return {};
  }
  case VStmtKind::BlockingAssign: {
    Result<VValue> V = eval(*S.Rhs, View);
    if (!V)
      return V.error();
    Overlay[S.Lhs] = V.take();
    return {};
  }
  case VStmtKind::NonBlockingAssign: {
    Result<VValue> V = eval(*S.Rhs, View);
    if (!V)
      return V.error();
    NbWrite W;
    W.Name = S.Lhs;
    W.Value = V.take();
    Queue.push_back(std::move(W));
    return {};
  }
  case VStmtKind::MemWrite: {
    Result<VValue> Idx = eval(*S.Index, View);
    if (!Idx)
      return Idx.error();
    Result<VValue> V = eval(*S.Rhs, View);
    if (!V)
      return V.error();
    NbWrite W;
    W.Name = S.Lhs;
    W.IsMem = true;
    W.Index = Idx->Bits;
    W.Value = V.take();
    Queue.push_back(std::move(W));
    return {};
  }
  }
  return Error("unhandled statement");
}

} // namespace

Result<VValue> silver::hdl::evalExp(const VExp &E, const SimState &State) {
  ReadView View{State, nullptr};
  return eval(E, View);
}

SimState SimState::init(const VModule &M) {
  SimState S;
  auto Zero = [](const VType &T) {
    switch (T.K) {
    case VType::Kind::Bool:
      return VValue::boolean(false);
    case VType::Kind::Vec:
      return VValue::vec(T.Width, 0);
    case VType::Kind::Mem:
      return VValue::mem(T.Width, T.Depth);
    }
    return VValue::boolean(false);
  };
  for (const VPort &P : M.Ports)
    S.Vars[P.Name] = Zero(P.Type);
  for (const VDecl &D : M.Decls)
    S.Vars[D.Name] = Zero(D.Type);
  return S;
}

Result<void> silver::hdl::stepCycle(const VModule &M, SimState &State,
                                    const std::map<std::string, VValue> &In) {
  // Drive the input ports.
  for (const VPort &P : M.Ports) {
    if (P.D != VPort::Dir::Input)
      continue;
    auto It = In.find(P.Name);
    if (It == In.end())
      return Error("input port '" + P.Name + "' not driven");
    State.Vars[P.Name] = It->second;
  }

  // Run every process over the cycle-start state.
  std::vector<std::map<std::string, VValue>> Overlays;
  std::vector<NbWrite> Queue;
  Overlays.reserve(M.Processes.size());
  for (const VProcess &P : M.Processes) {
    Overlays.emplace_back();
    if (Result<void> R = execStmt(*P.Body, State, Overlays.back(), Queue);
        !R)
      return R;
  }

  // Commit: blocking overlays first (disjoint by non-interference), then
  // the non-blocking queue in program order (last write wins).
  for (const auto &Overlay : Overlays)
    for (const auto &[Name, Value] : Overlay)
      State.Vars[Name] = Value;
  for (NbWrite &W : Queue) {
    if (!W.IsMem) {
      State.Vars[W.Name] = std::move(W.Value);
      continue;
    }
    VValue &Mem = State.Vars[W.Name];
    if (Mem.K != VValue::Kind::Mem || W.Index >= Mem.Elems.size())
      return Error("memory write out of range in '" + W.Name + "'");
    Mem.Elems[W.Index] = W.Value.Bits;
  }
  return {};
}
