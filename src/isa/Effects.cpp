//===- isa/Effects.cpp - Static per-instruction effect metadata -------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "isa/Effects.h"

using namespace silver;
using namespace silver::isa;

EffectInfo silver::isa::effectsOf(const Instruction &I) {
  EffectInfo E;
  auto Def = [&](unsigned R) { E.RegWrites |= uint64_t(1) << R; };
  auto Use = [&](const Operand &Op) {
    if (!Op.IsImm)
      E.RegReads |= uint64_t(1) << Op.Value;
  };
  auto Alu = [&](Func F) {
    E.WritesFlags = funcWritesFlags(F);
    E.ReadsFlags = funcReadsFlags(F);
  };
  switch (I.Op) {
  case Opcode::Normal:
    Def(I.WReg);
    Use(I.A);
    Use(I.B);
    Alu(I.F);
    break;
  case Opcode::Shift:
    Def(I.WReg);
    Use(I.A);
    Use(I.B);
    break;
  case Opcode::LoadMEM:
  case Opcode::LoadMEMByte:
    Def(I.WReg);
    Use(I.A);
    E.Mem = MemAccessKind::Read;
    E.MemSize = I.Op == Opcode::LoadMEM ? 4 : 1;
    break;
  case Opcode::StoreMEM:
  case Opcode::StoreMEMByte:
    Use(I.A);
    Use(I.B);
    E.Mem = MemAccessKind::Write;
    E.MemSize = I.Op == Opcode::StoreMEM ? 4 : 1;
    break;
  case Opcode::LoadConstant:
    Def(I.WReg);
    break;
  case Opcode::LoadUpperConstant:
    Def(I.WReg);
    E.RegReads |= uint64_t(1) << I.WReg; // merges into the low bits
    break;
  case Opcode::Jump:
    Def(I.WReg); // the link value, even when it is discarded via r63
    Use(I.A);
    Alu(I.F);
    E.IsControl = true;
    break;
  case Opcode::JumpIfZero:
  case Opcode::JumpIfNotZero:
    Use(I.A);
    Use(I.B);
    Alu(I.F);
    E.IsControl = true;
    break;
  case Opcode::Interrupt:
    E.IsIo = true;
    break;
  case Opcode::In:
    Def(I.WReg);
    E.IsIo = true;
    break;
  case Opcode::Out:
    Use(I.A);
    E.IsIo = true;
    break;
  }
  return E;
}
