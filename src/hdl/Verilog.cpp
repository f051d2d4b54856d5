//===- hdl/Verilog.cpp - Deeply embedded Verilog subset ----------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "hdl/Verilog.h"

using namespace silver;
using namespace silver::hdl;

VExpPtr VExp::clone() const {
  auto E = std::make_unique<VExp>();
  E->Kind = Kind;
  E->Bool = Bool;
  E->Width = Width;
  E->Bits = Bits;
  E->Name = Name;
  E->BOp = BOp;
  E->UOp = UOp;
  E->Hi = Hi;
  E->Lo = Lo;
  for (const VExpPtr &A : Args)
    E->Args.push_back(A->clone());
  return E;
}

VExpPtr silver::hdl::vConstBool(bool B) {
  auto E = std::make_unique<VExp>();
  E->Kind = VExpKind::ConstBool;
  E->Bool = B;
  return E;
}

VExpPtr silver::hdl::vConstVec(unsigned Width, uint64_t Bits) {
  auto E = std::make_unique<VExp>();
  E->Kind = VExpKind::ConstVec;
  E->Width = Width;
  E->Bits = Width >= 64 ? Bits : (Bits & ((uint64_t(1) << Width) - 1));
  return E;
}

VExpPtr silver::hdl::vVar(std::string Name) {
  auto E = std::make_unique<VExp>();
  E->Kind = VExpKind::Var;
  E->Name = std::move(Name);
  return E;
}

VExpPtr silver::hdl::vMemRead(std::string Name, VExpPtr Index) {
  auto E = std::make_unique<VExp>();
  E->Kind = VExpKind::MemRead;
  E->Name = std::move(Name);
  E->Args.push_back(std::move(Index));
  return E;
}

VExpPtr silver::hdl::vBinary(BinaryOp Op, VExpPtr A, VExpPtr B) {
  auto E = std::make_unique<VExp>();
  E->Kind = VExpKind::Binary;
  E->BOp = Op;
  E->Args.push_back(std::move(A));
  E->Args.push_back(std::move(B));
  return E;
}

VExpPtr silver::hdl::vUnary(UnaryOp Op, VExpPtr A) {
  auto E = std::make_unique<VExp>();
  E->Kind = VExpKind::Unary;
  E->UOp = Op;
  E->Args.push_back(std::move(A));
  return E;
}

VExpPtr silver::hdl::vSlice(VExpPtr A, unsigned Hi, unsigned Lo) {
  auto E = std::make_unique<VExp>();
  E->Kind = VExpKind::Slice;
  E->Hi = Hi;
  E->Lo = Lo;
  E->Args.push_back(std::move(A));
  return E;
}

VExpPtr silver::hdl::vConcat(VExpPtr Hi, VExpPtr Lo) {
  auto E = std::make_unique<VExp>();
  E->Kind = VExpKind::Concat;
  E->Args.push_back(std::move(Hi));
  E->Args.push_back(std::move(Lo));
  return E;
}

VExpPtr silver::hdl::vCond(VExpPtr C, VExpPtr T, VExpPtr F) {
  auto E = std::make_unique<VExp>();
  E->Kind = VExpKind::Cond;
  E->Args.push_back(std::move(C));
  E->Args.push_back(std::move(T));
  E->Args.push_back(std::move(F));
  return E;
}

VExpPtr silver::hdl::vZeroExt(unsigned Width, VExpPtr A) {
  auto E = std::make_unique<VExp>();
  E->Kind = VExpKind::ZeroExt;
  E->Width = Width;
  E->Args.push_back(std::move(A));
  return E;
}

VExpPtr silver::hdl::vSignExt(unsigned Width, VExpPtr A) {
  auto E = std::make_unique<VExp>();
  E->Kind = VExpKind::SignExt;
  E->Width = Width;
  E->Args.push_back(std::move(A));
  return E;
}

VExpPtr silver::hdl::vBoolToVec(VExpPtr A) {
  auto E = std::make_unique<VExp>();
  E->Kind = VExpKind::BoolToVec;
  E->Width = 1;
  E->Args.push_back(std::move(A));
  return E;
}

VExpPtr silver::hdl::vVecToBool(VExpPtr A) {
  auto E = std::make_unique<VExp>();
  E->Kind = VExpKind::VecToBool;
  E->Args.push_back(std::move(A));
  return E;
}

VStmtPtr silver::hdl::vBlock(std::vector<VStmtPtr> Stmts) {
  auto S = std::make_unique<VStmt>();
  S->Kind = VStmtKind::Block;
  S->Stmts = std::move(Stmts);
  return S;
}

VStmtPtr silver::hdl::vIf(VExpPtr Cond, VStmtPtr Then, VStmtPtr Else) {
  auto S = std::make_unique<VStmt>();
  S->Kind = VStmtKind::If;
  S->Cond = std::move(Cond);
  S->Then = std::move(Then);
  S->Else = std::move(Else);
  return S;
}

VStmtPtr silver::hdl::vBlocking(std::string Lhs, VExpPtr Rhs) {
  auto S = std::make_unique<VStmt>();
  S->Kind = VStmtKind::BlockingAssign;
  S->Lhs = std::move(Lhs);
  S->Rhs = std::move(Rhs);
  return S;
}

VStmtPtr silver::hdl::vNonBlocking(std::string Lhs, VExpPtr Rhs) {
  auto S = std::make_unique<VStmt>();
  S->Kind = VStmtKind::NonBlockingAssign;
  S->Lhs = std::move(Lhs);
  S->Rhs = std::move(Rhs);
  return S;
}

VStmtPtr silver::hdl::vMemWrite(std::string Mem, VExpPtr Index,
                                VExpPtr Rhs) {
  auto S = std::make_unique<VStmt>();
  S->Kind = VStmtKind::MemWrite;
  S->Lhs = std::move(Mem);
  S->Index = std::move(Index);
  S->Rhs = std::move(Rhs);
  return S;
}

static void addBlockingTargets(const VStmt &S, std::set<std::string> &Out) {
  switch (S.Kind) {
  case VStmtKind::Block:
    for (const VStmtPtr &Sub : S.Stmts)
      addBlockingTargets(*Sub, Out);
    return;
  case VStmtKind::If:
    addBlockingTargets(*S.Then, Out);
    if (S.Else)
      addBlockingTargets(*S.Else, Out);
    return;
  case VStmtKind::BlockingAssign:
    Out.insert(S.Lhs);
    return;
  case VStmtKind::NonBlockingAssign:
  case VStmtKind::MemWrite:
    return;
  }
}

std::set<std::string> silver::hdl::blockingTargets(const VStmt &S) {
  std::set<std::string> Out;
  addBlockingTargets(S, Out);
  return Out;
}
