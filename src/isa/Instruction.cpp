//===- isa/Instruction.cpp - Silver instruction printing ------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "isa/Instruction.h"

using namespace silver;
using namespace silver::isa;

const char *silver::isa::funcName(Func F) {
  switch (F) {
  case Func::Add:
    return "add";
  case Func::AddCarry:
    return "addc";
  case Func::Sub:
    return "sub";
  case Func::Carry:
    return "carry";
  case Func::Overflow:
    return "overflow";
  case Func::Inc:
    return "inc";
  case Func::Dec:
    return "dec";
  case Func::Mul:
    return "mul";
  case Func::MulHigh:
    return "mulhi";
  case Func::And:
    return "and";
  case Func::Or:
    return "or";
  case Func::Xor:
    return "xor";
  case Func::Equal:
    return "eq";
  case Func::Less:
    return "lt";
  case Func::Lower:
    return "ltu";
  case Func::Snd:
    return "snd";
  }
  return "?";
}

const char *silver::isa::shiftName(ShiftKind K) {
  switch (K) {
  case ShiftKind::LogicalLeft:
    return "sll";
  case ShiftKind::LogicalRight:
    return "srl";
  case ShiftKind::ArithRight:
    return "sra";
  case ShiftKind::RotateRight:
    return "ror";
  }
  return "?";
}

const char *silver::isa::opcodeName(Opcode Op) {
  switch (Op) {
  case Opcode::Normal:
    return "alu";
  case Opcode::Shift:
    return "shift";
  case Opcode::LoadMEM:
    return "load";
  case Opcode::LoadMEMByte:
    return "loadb";
  case Opcode::StoreMEM:
    return "store";
  case Opcode::StoreMEMByte:
    return "storeb";
  case Opcode::LoadConstant:
    return "li";
  case Opcode::LoadUpperConstant:
    return "lui";
  case Opcode::Jump:
    return "jmp";
  case Opcode::JumpIfZero:
    return "bz";
  case Opcode::JumpIfNotZero:
    return "bnz";
  case Opcode::Interrupt:
    return "interrupt";
  case Opcode::In:
    return "in";
  case Opcode::Out:
    return "out";
  }
  return "?";
}

static std::string operandString(Operand Op) {
  if (Op.IsImm)
    return '#' + std::to_string(asSigned(Op.immValue()));
  return 'r' + std::to_string(Op.Value);
}

std::string silver::isa::toString(const Instruction &I) {
  std::string W = 'r' + std::to_string(I.WReg);
  switch (I.Op) {
  case Opcode::Normal:
    return std::string(funcName(I.F)) + " " + W + ", " + operandString(I.A) +
           ", " + operandString(I.B);
  case Opcode::Shift:
    return std::string(shiftName(I.Sh)) + " " + W + ", " +
           operandString(I.A) + ", " + operandString(I.B);
  case Opcode::LoadMEM:
    return "ldw " + W + ", [" + operandString(I.A) + "]";
  case Opcode::LoadMEMByte:
    return "ldb " + W + ", [" + operandString(I.A) + "]";
  case Opcode::StoreMEM:
    return "stw " + operandString(I.A) + ", [" + operandString(I.B) + "]";
  case Opcode::StoreMEMByte:
    return "stb " + operandString(I.A) + ", [" + operandString(I.B) + "]";
  case Opcode::LoadConstant:
    return "ldc " + W + ", " + (I.Negate ? "-" : "") + std::to_string(I.Imm);
  case Opcode::LoadUpperConstant:
    return "lduc " + W + ", " + std::to_string(I.Imm);
  case Opcode::Jump:
    if (I.isSelfJump())
      return "halt (" + W + ")";
    return std::string("jmp.") + funcName(I.F) + " " + W + ", " +
           operandString(I.A);
  case Opcode::JumpIfZero:
    return std::string("bz.") + funcName(I.F) + " " + operandString(I.A) +
           ", " + operandString(I.B) + ", " + std::to_string(I.Offset);
  case Opcode::JumpIfNotZero:
    return std::string("bnz.") + funcName(I.F) + " " + operandString(I.A) +
           ", " + operandString(I.B) + ", " + std::to_string(I.Offset);
  case Opcode::Interrupt:
    return "interrupt";
  case Opcode::In:
    return "in " + W;
  case Opcode::Out:
    return "out " + operandString(I.A);
  }
  return "?";
}
