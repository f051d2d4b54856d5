//===- rtl/ToVerilog.cpp - Circuit-to-Verilog code generator -----------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "rtl/ToVerilog.h"

using namespace silver;
using namespace silver::rtl;
using namespace silver::hdl;

static std::string nodeVarName(NodeId I) { return 'n' + std::to_string(I); }

std::string silver::rtl::regVarName(const Circuit &, unsigned R) {
  return "r_" + std::to_string(R);
}

std::string silver::rtl::memVarName(const Circuit &, unsigned M) {
  return "m_" + std::to_string(M);
}

Result<VModule> silver::rtl::toVerilog(const Circuit &C) {
  if (Result<void> V = C.validate(); !V)
    return V.error();

  VModule M;
  M.Name = C.Name;

  // Ports: inputs and outputs as vectors.
  for (const InputDef &In : C.Inputs) {
    VPort P;
    P.D = VPort::Dir::Input;
    P.Name = In.Name;
    P.Type = VType::vec(In.Width);
    M.Ports.push_back(std::move(P));
  }
  for (const OutputDef &Out : C.Outputs) {
    VPort P;
    P.D = VPort::Dir::Output;
    P.Name = Out.Name;
    P.Type = VType::vec(C.Nodes[Out.Value].Width);
    M.Ports.push_back(std::move(P));
  }

  // Declarations: one per node (the shared intermediates), plus the
  // registers and memories.
  for (NodeId I = 0; I != C.Nodes.size(); ++I) {
    if (C.Nodes[I].Op == NodeOp::Input)
      continue; // read directly from the port
    M.Decls.push_back({nodeVarName(I), VType::vec(C.Nodes[I].Width)});
    if (C.Nodes[I].Op == NodeOp::MulHigh)
      M.Decls.push_back({nodeVarName(I) + "w", VType::vec(64)});
    if (C.Nodes[I].Op == NodeOp::RotR)
      M.Decls.push_back(
          {nodeVarName(I) + "a",
           VType::vec(C.Nodes[C.Nodes[I].Args[1]].Width)});
  }
  for (unsigned R = 0; R != C.Regs.size(); ++R)
    M.Decls.push_back({regVarName(C, R), VType::vec(C.Regs[R].Width)});
  for (unsigned Mi = 0; Mi != C.Mems.size(); ++Mi)
    M.Decls.push_back({memVarName(C, Mi),
                       VType::mem(C.Mems[Mi].ElemWidth, C.Mems[Mi].Depth)});

  // Helper: reference a node's value (its variable, or the input port).
  auto Ref = [&C](NodeId I) -> VExpPtr {
    if (C.Nodes[I].Op == NodeOp::Input)
      return vVar(C.Nodes[I].Name);
    return vVar(nodeVarName(I));
  };
  // 1-bit node used as a condition.
  auto CondRef = [&Ref](NodeId I) { return vVecToBool(Ref(I)); };

  std::vector<VStmtPtr> Body;

  for (NodeId I = 0; I != C.Nodes.size(); ++I) {
    const Node &N = C.Nodes[I];
    VExpPtr Rhs;
    switch (N.Op) {
    case NodeOp::Input:
      continue;
    case NodeOp::Const:
      Rhs = vConstVec(N.Width, N.Const);
      break;
    case NodeOp::RegRead:
      Rhs = vVar(regVarName(C, N.Index));
      break;
    case NodeOp::MemRead:
      Rhs = vMemRead(memVarName(C, N.Index), Ref(N.Args[0]));
      break;
    case NodeOp::Add:
      Rhs = vBinary(BinaryOp::Add, Ref(N.Args[0]), Ref(N.Args[1]));
      break;
    case NodeOp::Sub:
      Rhs = vBinary(BinaryOp::Sub, Ref(N.Args[0]), Ref(N.Args[1]));
      break;
    case NodeOp::Mul:
      Rhs = vBinary(BinaryOp::Mul, Ref(N.Args[0]), Ref(N.Args[1]));
      break;
    case NodeOp::MulHigh: {
      // nIw = 64'(a) * 64'(b); nI = nIw[hi:width].
      Body.push_back(vBlocking(
          nodeVarName(I) + "w",
          vBinary(BinaryOp::Mul, vZeroExt(64, Ref(N.Args[0])),
                  vZeroExt(64, Ref(N.Args[1])))));
      Rhs = vSlice(vVar(nodeVarName(I) + "w"), 2 * N.Width - 1, N.Width);
      break;
    }
    case NodeOp::And:
      Rhs = vBinary(BinaryOp::And, Ref(N.Args[0]), Ref(N.Args[1]));
      break;
    case NodeOp::Or:
      Rhs = vBinary(BinaryOp::Or, Ref(N.Args[0]), Ref(N.Args[1]));
      break;
    case NodeOp::Xor:
      Rhs = vBinary(BinaryOp::Xor, Ref(N.Args[0]), Ref(N.Args[1]));
      break;
    case NodeOp::Not:
      Rhs = vUnary(UnaryOp::Not, Ref(N.Args[0]));
      break;
    case NodeOp::Eq:
      Rhs = vBoolToVec(
          vBinary(BinaryOp::Eq, Ref(N.Args[0]), Ref(N.Args[1])));
      break;
    case NodeOp::LtU:
      Rhs = vBoolToVec(
          vBinary(BinaryOp::LtU, Ref(N.Args[0]), Ref(N.Args[1])));
      break;
    case NodeOp::LtS:
      Rhs = vBoolToVec(
          vBinary(BinaryOp::LtS, Ref(N.Args[0]), Ref(N.Args[1])));
      break;
    case NodeOp::Shl:
      Rhs = vBinary(BinaryOp::Shl, Ref(N.Args[0]), Ref(N.Args[1]));
      break;
    case NodeOp::ShrL:
      Rhs = vBinary(BinaryOp::ShrL, Ref(N.Args[0]), Ref(N.Args[1]));
      break;
    case NodeOp::ShrA:
      Rhs = vBinary(BinaryOp::ShrA, Ref(N.Args[0]), Ref(N.Args[1]));
      break;
    case NodeOp::RotR: {
      // nIa = amount; nI = (nIa == 0) ? x : (x >> nIa) | (x << (W - nIa)).
      unsigned AmtW = C.Nodes[N.Args[1]].Width;
      Body.push_back(vBlocking(nodeVarName(I) + "a", Ref(N.Args[1])));
      VExpPtr Amt = vVar(nodeVarName(I) + "a");
      VExpPtr IsZero =
          vBinary(BinaryOp::Eq, Amt->clone(), vConstVec(AmtW, 0));
      VExpPtr Lo = vBinary(BinaryOp::ShrL, Ref(N.Args[0]), Amt->clone());
      VExpPtr Hi = vBinary(
          BinaryOp::Shl, Ref(N.Args[0]),
          vBinary(BinaryOp::Sub, vConstVec(AmtW, N.Width), Amt->clone()));
      Rhs = vCond(std::move(IsZero), Ref(N.Args[0]),
                  vBinary(BinaryOp::Or, std::move(Lo), std::move(Hi)));
      break;
    }
    case NodeOp::Mux:
      Rhs = vCond(CondRef(N.Args[0]), Ref(N.Args[1]), Ref(N.Args[2]));
      break;
    case NodeOp::Slice:
      Rhs = vSlice(Ref(N.Args[0]), N.Hi, N.Lo);
      break;
    case NodeOp::Concat:
      Rhs = vConcat(Ref(N.Args[0]), Ref(N.Args[1]));
      break;
    case NodeOp::ZeroExt:
      Rhs = vZeroExt(N.Width, Ref(N.Args[0]));
      break;
    case NodeOp::SignExt:
      Rhs = vSignExt(N.Width, Ref(N.Args[0]));
      break;
    }
    Body.push_back(vBlocking(nodeVarName(I), std::move(Rhs)));
  }

  // Outputs: combinational values of this cycle (blocking).
  for (const OutputDef &Out : C.Outputs)
    Body.push_back(vBlocking(Out.Name, Ref(Out.Value)));

  // State: non-blocking register latches and guarded memory writes.
  for (unsigned R = 0; R != C.Regs.size(); ++R)
    Body.push_back(vNonBlocking(regVarName(C, R), Ref(C.Regs[R].Next)));
  for (unsigned Mi = 0; Mi != C.Mems.size(); ++Mi)
    for (const MemWritePort &W : C.Mems[Mi].Writes)
      Body.push_back(vIf(CondRef(W.Enable),
                         vMemWrite(memVarName(C, Mi), Ref(W.Addr),
                                   Ref(W.Data)),
                         nullptr));

  VProcess P;
  P.Comment = "generated from circuit '" + C.Name + "'";
  P.Body = vBlock(std::move(Body));
  M.Processes.push_back(std::move(P));
  return M;
}
