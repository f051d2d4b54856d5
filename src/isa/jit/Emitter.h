//===- isa/jit/Emitter.h - Minimal x86-64 instruction emitter --*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny x86-64 emitter covering exactly the instruction forms the
/// block templates need (isa/jit/JitCompiler.cpp).  Bytes accumulate in
/// a plain vector; the compiler copies the finished block into the W^X
/// code arena and resolves the recorded patch sites.
///
/// Internal to the JIT; not part of the isa public API.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_ISA_JIT_EMITTER_H
#define SILVER_ISA_JIT_EMITTER_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace silver {
namespace isa {
namespace jit {

/// Host register numbers (the hardware encoding).
enum HostReg : uint8_t {
  RAX = 0,
  RCX = 1,
  RDX = 2,
  RBX = 3,
  RSP = 4,
  RBP = 5,
  RSI = 6,
  RDI = 7,
  R8 = 8,
  R9 = 9,
  R10 = 10,
  R11 = 11,
  R12 = 12,
  R13 = 13,
  R14 = 14,
  R15 = 15,
};

/// x86 condition codes (the low nibble of the 0F 8x / 0F 9x opcodes).
enum Cond : uint8_t {
  CondO = 0x0,  ///< overflow
  CondB = 0x2,  ///< below (CF=1)
  CondAE = 0x3, ///< above-or-equal (CF=0)
  CondE = 0x4,  ///< equal / zero
  CondNE = 0x5, ///< not equal / not zero
  CondA = 0x7,  ///< above (unsigned >)
  CondL = 0xc,  ///< less (signed)
};

class Emitter {
public:
  std::vector<uint8_t> Code;

  size_t size() const { return Code.size(); }

  void byte(uint8_t B) { Code.push_back(B); }
  void u32(uint32_t V) {
    byte(static_cast<uint8_t>(V));
    byte(static_cast<uint8_t>(V >> 8));
    byte(static_cast<uint8_t>(V >> 16));
    byte(static_cast<uint8_t>(V >> 24));
  }

  // --- register-register ALU (32-bit): op r/m=dst, r=src -------------
  // Opcodes are the /r "r/m, r" forms: 01 add, 11 adc, 29 sub, 21 and,
  // 09 or, 31 xor, 39 cmp, 85 test, 89 mov.
  void opRR(uint8_t Opcode, HostReg Dst, HostReg Src) {
    rex(false, Src, Dst);
    byte(Opcode);
    modRM(3, Src & 7, Dst & 7);
  }
  void addRR(HostReg Dst, HostReg Src) { opRR(0x01, Dst, Src); }
  void adcRR(HostReg Dst, HostReg Src) { opRR(0x11, Dst, Src); }
  void subRR(HostReg Dst, HostReg Src) { opRR(0x29, Dst, Src); }
  void andRR(HostReg Dst, HostReg Src) { opRR(0x21, Dst, Src); }
  void orRR(HostReg Dst, HostReg Src) { opRR(0x09, Dst, Src); }
  void xorRR(HostReg Dst, HostReg Src) { opRR(0x31, Dst, Src); }
  void cmpRR(HostReg Dst, HostReg Src) { opRR(0x39, Dst, Src); }
  void testRR(HostReg Dst, HostReg Src) { opRR(0x85, Dst, Src); }
  void movRR(HostReg Dst, HostReg Src) { opRR(0x89, Dst, Src); }

  /// imul dst32, src32 (0F AF /r; dst is the *reg* field here).
  void imulRR(HostReg Dst, HostReg Src) {
    rex(false, Dst, Src);
    byte(0x0f);
    byte(0xaf);
    modRM(3, Dst & 7, Src & 7);
  }

  /// mul r/m32: edx:eax = eax * src (F7 /4).
  void mulR(HostReg Src) {
    rex(false, RAX, Src); // reg field is the /4 extension, no REX.R
    byte(0xf7);
    modRM(3, 4, Src & 7);
  }

  /// mov r64, r64 (REX.W 89 /r).
  void movRR64(HostReg Dst, HostReg Src) {
    rexW(Src, Dst);
    byte(0x89);
    modRM(3, Src & 7, Dst & 7);
  }

  /// movzx r32, r8 (0F B6 /r register form; Src must be al/cl/dl/bl).
  void movzxR8(HostReg Dst, HostReg Src) {
    rex(false, Dst, Src);
    byte(0x0f);
    byte(0xb6);
    modRM(3, Dst & 7, Src & 7);
  }

  /// mov r8, imm8 (B0+rd ib; Dst must be al/cl/dl/bl).
  void movR8I(HostReg Dst, uint8_t Imm) {
    byte(static_cast<uint8_t>(0xb0 + (Dst & 7)));
    byte(Imm);
  }

  /// mov r32, imm32 (B8+rd id).
  void movRI(HostReg Dst, uint32_t Imm) {
    if (Dst >= R8)
      byte(0x41);
    byte(static_cast<uint8_t>(0xb8 + (Dst & 7)));
    u32(Imm);
  }

  /// Group-1 ALU with imm32 against r32 (81 /ext id): ext 0 add, 4 and,
  /// 1 or, 5 sub, 6 xor, 7 cmp.
  void aluRI(uint8_t Ext, HostReg Dst, uint32_t Imm) {
    rex(false, RAX, Dst);
    byte(0x81);
    modRM(3, Ext, Dst & 7);
    u32(Imm);
  }
  void addRI(HostReg Dst, uint32_t Imm) { aluRI(0, Dst, Imm); }
  void andRI(HostReg Dst, uint32_t Imm) { aluRI(4, Dst, Imm); }
  void orRI(HostReg Dst, uint32_t Imm) { aluRI(1, Dst, Imm); }
  void subRI(HostReg Dst, uint32_t Imm) { aluRI(5, Dst, Imm); }
  void cmpRI(HostReg Dst, uint32_t Imm) { aluRI(7, Dst, Imm); }

  // --- 64-bit budget arithmetic on a register (REX.W 81 /ext id; the
  // imm32 is sign-extended, so callers pass values < 2^31) ------------
  void aluRI64(uint8_t Ext, HostReg Dst, uint32_t Imm) {
    byte(static_cast<uint8_t>(0x48 | (Dst >= R8 ? 1 : 0)));
    byte(0x81);
    modRM(3, Ext, Dst & 7);
    u32(Imm);
  }
  void addRI64(HostReg Dst, uint32_t Imm) { aluRI64(0, Dst, Imm); }
  void subRI64(HostReg Dst, uint32_t Imm) { aluRI64(5, Dst, Imm); }
  void cmpRI64(HostReg Dst, uint32_t Imm) { aluRI64(7, Dst, Imm); }

  // --- [base + disp] forms (base is any host register but RSP) -------

  /// mov r32, [base+disp] (8B /r).
  void loadRM(HostReg Dst, HostReg Base, int32_t Disp) {
    rex(false, Dst, Base);
    byte(0x8b);
    memOperand(Dst, Base, Disp);
  }
  /// mov [base+disp], r32 (89 /r).
  void storeMR(HostReg Base, int32_t Disp, HostReg Src) {
    rex(false, Src, Base);
    byte(0x89);
    memOperand(Src, Base, Disp);
  }
  /// mov dword [base+disp], imm32 (C7 /0 id).
  void storeMI(HostReg Base, int32_t Disp, uint32_t Imm) {
    rex(false, RAX, Base);
    byte(0xc7);
    memOperand(RAX, Base, Disp);
    u32(Imm);
  }
  /// mov byte [base+disp], imm8 (C6 /0 ib).
  void storeMI8(HostReg Base, int32_t Disp, uint8_t Imm) {
    rex(false, RAX, Base);
    byte(0xc6);
    memOperand(RAX, Base, Disp);
    byte(Imm);
  }
  /// mov byte [base+disp], r8 (88 /r; Src must be al/cl/dl/bl).
  void storeMR8(HostReg Base, int32_t Disp, HostReg Src) {
    rex(false, Src, Base);
    byte(0x88);
    memOperand(Src, Base, Disp);
  }
  /// movzx r32, byte [base+disp] (0F B6 /r).
  void loadZxM8(HostReg Dst, HostReg Base, int32_t Disp) {
    rex(false, Dst, Base);
    byte(0x0f);
    byte(0xb6);
    memOperand(Dst, Base, Disp);
  }
  /// xor r8, byte [base+disp] (32 /r; Dst must be al/cl/dl/bl).
  void xorR8M(HostReg Dst, HostReg Base, int32_t Disp) {
    rex(false, Dst, Base);
    byte(0x32);
    memOperand(Dst, Base, Disp);
  }
  /// mov r64, [base+disp] (REX.W 8B /r).
  void loadRM64(HostReg Dst, HostReg Base, int32_t Disp) {
    rexW(Dst, Base);
    byte(0x8b);
    memOperand(Dst, Base, Disp);
  }
  /// mov [base+disp], r64 (REX.W 89 /r).
  void storeMR64(HostReg Base, int32_t Disp, HostReg Src) {
    rexW(Src, Base);
    byte(0x89);
    memOperand(Src, Base, Disp);
  }

  // --- [base + index] forms (scale 1; for Silver memory access) ------

  /// mov r32, [base+index] (8B /r with SIB).
  void loadRX(HostReg Dst, HostReg Base, HostReg Index) {
    rexX(false, Dst, Index, Base);
    byte(0x8b);
    sibOperand(Dst, Base, Index);
  }
  /// mov [base+index], r32 (89 /r with SIB).
  void storeXR(HostReg Base, HostReg Index, HostReg Src) {
    rexX(false, Src, Index, Base);
    byte(0x89);
    sibOperand(Src, Base, Index);
  }
  /// movzx r32, byte [base+index].
  void loadZxX8(HostReg Dst, HostReg Base, HostReg Index) {
    rexX(false, Dst, Index, Base);
    byte(0x0f);
    byte(0xb6);
    sibOperand(Dst, Base, Index);
  }
  /// mov byte [base+index], r8 (88 /r; Src must be al/cl/dl/bl).
  void storeXR8(HostReg Base, HostReg Index, HostReg Src) {
    rexX(false, Src, Index, Base);
    byte(0x88);
    sibOperand(Src, Base, Index);
  }
  /// mov byte [base+index], imm8 (C6 /0 ib).
  void storeX8I(HostReg Base, HostReg Index, uint8_t Imm) {
    rexX(false, RAX, Index, Base);
    byte(0xc6);
    sibOperand(RAX, Base, Index);
    byte(Imm);
  }
  /// test byte [base+index], imm8 (F6 /0 ib).
  void testX8I(HostReg Base, HostReg Index, uint8_t Imm) {
    rexX(false, RAX, Index, Base);
    byte(0xf6);
    sibOperand(RAX, Base, Index);
    byte(Imm);
  }

  // --- flags, shifts, tests ------------------------------------------

  /// setcc r8 (0F 9x /0; Dst must be al/cl/dl/bl).
  void setcc(Cond C, HostReg Dst) {
    byte(0x0f);
    byte(static_cast<uint8_t>(0x90 | C));
    modRM(3, 0, Dst & 7);
  }
  /// test r8, imm8 (F6 /0 ib; Dst must be al/cl/dl/bl).
  void testR8I(HostReg Dst, uint8_t Imm) {
    byte(0xf6);
    modRM(3, 0, Dst & 7);
    byte(Imm);
  }
  /// bt r32, imm8 (0F BA /4 ib) — loads bit \p Bit of Dst into CF.
  void btRI(HostReg Dst, uint8_t Bit) {
    rex(false, RAX, Dst);
    byte(0x0f);
    byte(0xba);
    modRM(3, 4, Dst & 7);
    byte(Bit);
  }
  /// Shift group D3 /ext by cl: ext 4 shl, 5 shr, 7 sar, 1 ror.
  void shiftRCl(uint8_t Ext, HostReg Dst) {
    rex(false, RAX, Dst);
    byte(0xd3);
    modRM(3, Ext, Dst & 7);
  }

  // --- control flow ---------------------------------------------------

  /// jcc rel32 (0F 8x cd); returns the offset of the rel32 field.
  size_t jcc32(Cond C) {
    byte(0x0f);
    byte(static_cast<uint8_t>(0x80 | C));
    size_t At = Code.size();
    u32(0);
    return At;
  }
  /// jmp rel32 (E9 cd); returns the offset of the rel32 field.
  size_t jmp32() {
    byte(0xe9);
    size_t At = Code.size();
    u32(0);
    return At;
  }
  /// Resolves a rel32 recorded by jcc32/jmp32 to jump to \p Target
  /// (an offset within this buffer).
  void patchRel32(size_t FieldAt, size_t Target) {
    int32_t Rel =
        static_cast<int32_t>(Target) - static_cast<int32_t>(FieldAt + 4);
    Code[FieldAt] = static_cast<uint8_t>(Rel);
    Code[FieldAt + 1] = static_cast<uint8_t>(Rel >> 8);
    Code[FieldAt + 2] = static_cast<uint8_t>(Rel >> 16);
    Code[FieldAt + 3] = static_cast<uint8_t>(Rel >> 24);
  }

  void pushR(HostReg R) {
    if (R >= R8)
      byte(0x41);
    byte(static_cast<uint8_t>(0x50 + (R & 7)));
  }
  void popR(HostReg R) {
    if (R >= R8)
      byte(0x41);
    byte(static_cast<uint8_t>(0x58 + (R & 7)));
  }
  void ret() { byte(0xc3); }
  /// jmp r64 (FF /4).
  void jmpR(HostReg R) {
    if (R >= R8)
      byte(0x41);
    byte(0xff);
    modRM(3, 4, R & 7);
  }
  /// shr r32, imm8 (C1 /5 ib).
  void shrRI(HostReg Dst, uint8_t Imm) {
    rex(false, RAX, Dst);
    byte(0xc1);
    modRM(3, 5, Dst & 7);
    byte(Imm);
  }

private:
  void modRM(unsigned Mod, unsigned Reg, unsigned Rm) {
    byte(static_cast<uint8_t>((Mod << 6) | ((Reg & 7) << 3) | (Rm & 7)));
  }
  /// REX for reg/rm forms; emitted only when an extended register needs
  /// it (32-bit operand size).
  void rex(bool W, HostReg Reg, HostReg Rm) {
    uint8_t B = 0x40;
    if (W)
      B |= 8;
    if (Reg >= R8)
      B |= 4;
    if (Rm >= R8)
      B |= 1;
    if (B != 0x40)
      byte(B);
  }
  void rexW(HostReg Reg, HostReg Rm) { rex(true, Reg, Rm); }
  /// REX for SIB forms with an index register.
  void rexX(bool W, HostReg Reg, HostReg Index, HostReg Base) {
    uint8_t B = 0x40;
    if (W)
      B |= 8;
    if (Reg >= R8)
      B |= 4;
    if (Index >= R8)
      B |= 2;
    if (Base >= R8)
      B |= 1;
    if (B != 0x40)
      byte(B);
  }

  /// [Base + Disp] operand.  Always uses an explicit disp (mod 01/10),
  /// sidestepping the mod=00 rm=101 RIP-relative special case for
  /// r13/rbp bases.  Base must not be RSP/R12 (no SIB path here) —
  /// which holds for the bases the templates use (r13/r14/r15).
  void memOperand(HostReg Reg, HostReg Base, int32_t Disp) {
    if (Disp >= -128 && Disp <= 127) {
      modRM(1, Reg & 7, Base & 7);
      byte(static_cast<uint8_t>(Disp));
    } else {
      modRM(2, Reg & 7, Base & 7);
      u32(static_cast<uint32_t>(Disp));
    }
  }

  /// [Base + Index*1] operand via SIB, disp8=0 form (valid for every
  /// base including r13).
  void sibOperand(HostReg Reg, HostReg Base, HostReg Index) {
    modRM(1, Reg & 7, 4); // rm=100: SIB follows, mod=01: disp8
    byte(static_cast<uint8_t>(((Index & 7) << 3) | (Base & 7)));
    byte(0);
  }
};

} // namespace jit
} // namespace isa
} // namespace silver

#endif // SILVER_ISA_JIT_EMITTER_H
