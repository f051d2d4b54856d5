//===- hdl/Printer.cpp - Synthesisable Verilog pretty-printer ----------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "hdl/Printer.h"

using namespace silver;
using namespace silver::hdl;

static std::string binOpText(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add:
    return "+";
  case BinaryOp::Sub:
    return "-";
  case BinaryOp::Mul:
    return "*";
  case BinaryOp::And:
    return "&";
  case BinaryOp::Or:
    return "|";
  case BinaryOp::Xor:
    return "^";
  case BinaryOp::Eq:
    return "==";
  case BinaryOp::LtU:
    return "<";
  case BinaryOp::LtS:
    return "<";
  case BinaryOp::Shl:
    return "<<";
  case BinaryOp::ShrL:
    return ">>";
  case BinaryOp::ShrA:
    return ">>>";
  }
  return "?";
}

std::string silver::hdl::printExp(const VExp &E) {
  switch (E.Kind) {
  case VExpKind::ConstBool:
    return E.Bool ? "1'b1" : "1'b0";
  case VExpKind::ConstVec:
    return std::to_string(E.Width) + "'d" + std::to_string(E.Bits);
  case VExpKind::Var:
    return E.Name;
  case VExpKind::MemRead:
    return E.Name + "[" + printExp(*E.Args[0]) + "]";
  case VExpKind::Binary: {
    std::string A = printExp(*E.Args[0]);
    std::string B = printExp(*E.Args[1]);
    if (E.BOp == BinaryOp::LtS)
      return "($signed(" + A + ") < $signed(" + B + "))";
    if (E.BOp == BinaryOp::ShrA)
      return "($signed(" + A + ") >>> " + B + ")";
    return "(" + A + " " + binOpText(E.BOp) + " " + B + ")";
  }
  case VExpKind::Unary:
    return (E.UOp == UnaryOp::Not ? "(~" : "(!") + printExp(*E.Args[0]) +
           ")";
  case VExpKind::Slice:
    return printExp(*E.Args[0]) + "[" + std::to_string(E.Hi) + ":" +
           std::to_string(E.Lo) + "]";
  case VExpKind::Concat:
    return '{' + printExp(*E.Args[0]) + ", " + printExp(*E.Args[1]) + "}";
  case VExpKind::Cond:
    return '(' + printExp(*E.Args[0]) + " ? " + printExp(*E.Args[1]) +
           " : " + printExp(*E.Args[2]) + ")";
  case VExpKind::ZeroExt:
    return std::to_string(E.Width) + "'(" + printExp(*E.Args[0]) + ")";
  case VExpKind::SignExt:
    return std::to_string(E.Width) + "'($signed(" + printExp(*E.Args[0]) +
           "))";
  case VExpKind::BoolToVec:
    return '{' + printExp(*E.Args[0]) + "}";
  case VExpKind::VecToBool:
    return '(' + printExp(*E.Args[0]) + " != 0)";
  }
  return "?";
}

static std::string typeText(const VType &T, const std::string &Name) {
  switch (T.K) {
  case VType::Kind::Bool:
    return "logic " + Name;
  case VType::Kind::Vec:
    return "logic [" + std::to_string(T.Width - 1) + ":0] " + Name;
  case VType::Kind::Mem:
    return "logic [" + std::to_string(T.Width - 1) + ":0] " + Name +
           " [0:" + std::to_string(T.Depth - 1) + "]";
  }
  return Name;
}

static void printStmt(const VStmt &S, std::string &Out, int Indent) {
  std::string Pad(Indent, ' ');
  switch (S.Kind) {
  case VStmtKind::Block:
    Out += Pad + "begin\n";
    for (const VStmtPtr &Sub : S.Stmts)
      printStmt(*Sub, Out, Indent + 2);
    Out += Pad + "end\n";
    return;
  case VStmtKind::If:
    Out += Pad + "if (" + printExp(*S.Cond) + ")\n";
    printStmt(*S.Then, Out, Indent + 2);
    if (S.Else) {
      Out += Pad + "else\n";
      printStmt(*S.Else, Out, Indent + 2);
    }
    return;
  case VStmtKind::BlockingAssign:
    Out += Pad + S.Lhs + " = " + printExp(*S.Rhs) + ";\n";
    return;
  case VStmtKind::NonBlockingAssign:
    Out += Pad + S.Lhs + " <= " + printExp(*S.Rhs) + ";\n";
    return;
  case VStmtKind::MemWrite:
    Out += Pad + S.Lhs + "[" + printExp(*S.Index) +
           "] <= " + printExp(*S.Rhs) + ";\n";
    return;
  }
}

std::string silver::hdl::printModule(const VModule &M) {
  std::string Out;
  Out += "// Generated by SilverStack's proof-producing Verilog code\n";
  Out += "// generator (C++ reproduction; see src/rtl/ToVerilog.cpp).\n";
  Out += "module " + M.Name + "(\n";
  Out += "  input logic clk";
  for (const VPort &P : M.Ports) {
    Out += ",\n  ";
    Out += P.D == VPort::Dir::Input ? "input " : "output ";
    Out += typeText(P.Type, P.Name);
  }
  Out += "\n);\n\n";
  for (const VDecl &D : M.Decls)
    Out += "  " + typeText(D.Type, D.Name) + ";\n";
  Out += "\n";
  for (const VProcess &P : M.Processes) {
    if (!P.Comment.empty())
      Out += "  // " + P.Comment + "\n";
    Out += "  always_ff @(posedge clk)\n";
    printStmt(*P.Body, Out, 2);
    Out += "\n";
  }
  Out += "endmodule\n";
  return Out;
}
