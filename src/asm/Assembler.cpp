//===- asm/Assembler.cpp - Silver assembler --------------------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "asm/Assembler.h"

#include <algorithm>
#include <cassert>

using namespace silver;
using namespace silver::assembler;
using silver::isa::Func;
using silver::isa::Instruction;
using silver::isa::Operand;

Word Assembled::addressOf(const std::string &Label) const {
  auto It = Symbols.find(Label);
  assert(It != Symbols.end() && "unknown label");
  return It->second;
}

void Assembler::label(const std::string &Name) {
  Item I;
  I.K = Kind::Label;
  I.Sym = Name;
  Items.push_back(std::move(I));
}

void Assembler::emit(const Instruction &Instr) {
  Item I;
  I.K = Kind::Fixed;
  I.Instr = Instr;
  Items.push_back(std::move(I));
}

void Assembler::emitLi(unsigned Reg, Word Value) {
  if (Value <= 0x1fffff) {
    emit(Instruction::loadConstant(Reg, /*Negate=*/false, Value));
    return;
  }
  if ((0u - Value) <= 0x1fffff) {
    emit(Instruction::loadConstant(Reg, /*Negate=*/true, 0u - Value));
    return;
  }
  emit(Instruction::loadConstant(Reg, /*Negate=*/false, Value & 0x1fffff));
  emit(Instruction::loadUpperConstant(Reg, Value >> 21));
}

void Assembler::emitLiLabel(unsigned Reg, const std::string &Label) {
  Item I;
  I.K = Kind::LiLabel;
  I.Sym = Label;
  I.Reg = Reg;
  Items.push_back(std::move(I));
}

void Assembler::emitBranch(bool WhenZero, Func F, Operand A, Operand B,
                           const std::string &Label) {
  Item I;
  I.K = Kind::Branch;
  I.WhenZero = WhenZero;
  I.F = F;
  I.A = A;
  I.B = B;
  I.Sym = Label;
  Items.push_back(std::move(I));
}

void Assembler::emitJump(const std::string &Label) {
  Item I;
  I.K = Kind::Jump;
  I.Sym = Label;
  Items.push_back(std::move(I));
}

void Assembler::emitCall(const std::string &Label, unsigned LinkReg) {
  Item I;
  I.K = Kind::Call;
  I.Sym = Label;
  I.Reg = LinkReg;
  Items.push_back(std::move(I));
}

void Assembler::emitRet(unsigned LinkReg) {
  emit(Instruction::jump(Func::Snd, abi::TmpReg, Operand::reg(LinkReg)));
}

void Assembler::emitHalt() { emit(Instruction::halt()); }

void Assembler::word(Word Value) {
  Item I;
  I.K = Kind::Word;
  I.Data = Value;
  Items.push_back(std::move(I));
}

void Assembler::bytes(const std::vector<uint8_t> &Data) {
  Item I;
  I.K = Kind::Bytes;
  I.Blob = Data;
  Items.push_back(std::move(I));
}

void Assembler::ascii(const std::string &Text) {
  bytes(std::vector<uint8_t>(Text.begin(), Text.end()));
}

void Assembler::align(Word Alignment) {
  assert((Alignment & (Alignment - 1)) == 0 && "alignment not a power of 2");
  Item I;
  I.K = Kind::Align;
  I.Data = Alignment;
  Items.push_back(std::move(I));
}

void Assembler::space(Word Count) {
  Item I;
  I.K = Kind::Space;
  I.Data = Count;
  Items.push_back(std::move(I));
}

namespace {

/// Looks \p Sym up among the program's own labels, then the externs.
const Word *findLabel(const std::map<std::string, Word> &Own,
                      const std::map<std::string, Word> &Externs,
                      const std::string &Sym) {
  auto It = Own.find(Sym);
  if (It != Own.end())
    return &It->second;
  It = Externs.find(Sym);
  return It == Externs.end() ? nullptr : &It->second;
}

void putWord(uint8_t *At, Word W) {
  At[0] = static_cast<uint8_t>(W);
  At[1] = static_cast<uint8_t>(W >> 8);
  At[2] = static_cast<uint8_t>(W >> 16);
  At[3] = static_cast<uint8_t>(W >> 24);
}

/// The two-instruction address load every label reference uses, so its
/// size is independent of the address.
void putLiValue(uint8_t *At, unsigned Reg, Word Value) {
  putWord(At, isa::encode(Instruction::loadConstant(Reg, false,
                                                    Value & 0x1fffff)));
  putWord(At + 4, isa::encode(Instruction::loadUpperConstant(Reg, Value >> 21)));
}

} // namespace

Result<Layout>
Assembler::layout(Word BaseAddr,
                  const std::map<std::string, Word> &Externs) const {
  Layout L;
  L.BaseAddr = BaseAddr;
  L.Far.assign(Items.size(), false);
  L.Offset.assign(Items.size(), 0);

  // Iterative relaxation.  Item sizes are monotone except Align padding,
  // so bound the iteration count and require a stable final pass.
  const int MaxIterations = 64;
  bool Stable = false;
  for (int Iter = 0; Iter != MaxIterations && !Stable; ++Iter) {
    // Phase 1: lay out with the current Far flags and bind labels.
    L.Labels.clear();
    Word At = 0;
    for (size_t I = 0, E = Items.size(); I != E; ++I) {
      const Item &It = Items[I];
      L.Offset[I] = At;
      switch (It.K) {
      case Kind::Label:
        if (Externs.count(It.Sym) ||
            !L.Labels.insert({It.Sym, BaseAddr + At}).second)
          return Error("duplicate label '" + It.Sym + "'");
        break;
      case Kind::Fixed:
        At += 4;
        break;
      case Kind::LiLabel:
        At += 8;
        break;
      case Kind::Branch:
        At += L.Far[I] ? 16 : 4;
        break;
      case Kind::Jump:
        At += L.Far[I] ? 12 : 4;
        break;
      case Kind::Call:
        At += 12;
        break;
      case Kind::Word:
        At += 4;
        break;
      case Kind::Bytes:
        At += static_cast<Word>(It.Blob.size());
        break;
      case Kind::Align:
        L.MaxAlign = std::max(L.MaxAlign, It.Data);
        At = alignUp(At + BaseAddr, It.Data) - BaseAddr;
        break;
      case Kind::Space:
        At += It.Data;
        break;
      }
    }
    L.Size = At;

    // Phase 2: check ranges; promote out-of-range items to far form.
    Stable = true;
    for (size_t I = 0, E = Items.size(); I != E; ++I) {
      const Item &It = Items[I];
      if ((It.K != Kind::Branch && It.K != Kind::Jump) || L.Far[I])
        continue;
      const Word *Target = findLabel(L.Labels, Externs, It.Sym);
      if (!Target)
        return Error("undefined label '" + It.Sym + "'");
      Word ItemAddr = BaseAddr + L.Offset[I];
      int64_t Delta =
          static_cast<int64_t>(*Target) - static_cast<int64_t>(ItemAddr);
      bool Fits = It.K == Kind::Branch
                      ? (Delta % 4 == 0 && fitsSigned(Delta / 4, 10))
                      : fitsSigned(Delta, 6);
      if (!Fits) {
        L.Far[I] = true;
        Stable = false;
      }
    }
  }
  if (!Stable)
    return Error("branch relaxation did not converge");
  return L;
}

Result<Assembled>
Assembler::encode(const Layout &L, const std::map<std::string, Word> &Externs,
                  Word Shift) const {
  return encodeWith(L, Externs, Shift, nullptr);
}

Result<Assembled>
Assembler::encodeWith(const Layout &L,
                      const std::map<std::string, Word> &Externs, Word Shift,
                      std::vector<Fragment::Reloc> *Relocs) const {
  if (Shift % L.MaxAlign != 0)
    return Error("layout cannot move by " + std::to_string(Shift) +
                 " bytes: its alignment is " + std::to_string(L.MaxAlign));
  Word BaseAddr = L.BaseAddr + Shift;
  Assembled Out;
  Out.BaseAddr = BaseAddr;
  for (const auto &[Name, Addr] : L.Labels)
    Out.Symbols.emplace_hint(Out.Symbols.end(), Name, Addr + Shift);
  Out.Bytes.resize(L.Size);

  auto EmitInstr = [&Out](size_t At, const Instruction &Instr) {
    putWord(&Out.Bytes[At], isa::encode(Instr));
  };
  // An absolute address load of \p Sym at byte \p At.
  auto EmitAddr = [&](size_t At, unsigned Reg,
                      const std::string &Sym) -> Result<void> {
    const Word *Target = findLabel(L.Labels, Externs, Sym);
    if (!Target && !Relocs)
      return Error("undefined label '" + Sym + "'");
    Word Value = Target ? *Target + Shift : 0;
    if (Relocs)
      Relocs->push_back({static_cast<Word>(At), Reg, Value - BaseAddr,
                         Target ? std::string() : Sym});
    putLiValue(&Out.Bytes[At], Reg, Value);
    return {};
  };

  for (size_t I = 0, E = Items.size(); I != E; ++I) {
    const Item &It = Items[I];
    size_t At = L.Offset[I];
    Word ItemAddr = BaseAddr + L.Offset[I];
    switch (It.K) {
    case Kind::Label:
    case Kind::Align: // padding stays zero
    case Kind::Space:
      break;
    case Kind::Fixed:
      EmitInstr(At, It.Instr);
      break;
    case Kind::LiLabel:
      if (Result<void> V = EmitAddr(At, It.Reg, It.Sym); !V)
        return V.error();
      break;
    case Kind::Branch: {
      if (!L.Far[I]) {
        Word Target = *findLabel(L.Labels, Externs, It.Sym) + Shift;
        int32_t Off = static_cast<int32_t>(
            (static_cast<int64_t>(Target) - ItemAddr) / 4);
        EmitInstr(At, It.WhenZero
                          ? Instruction::jumpIfZero(It.F, It.A, It.B, Off)
                          : Instruction::jumpIfNotZero(It.F, It.A, It.B, Off));
      } else {
        // Inverted condition skips the 3-instruction far jump.
        EmitInstr(At, It.WhenZero
                          ? Instruction::jumpIfNotZero(It.F, It.A, It.B, 4)
                          : Instruction::jumpIfZero(It.F, It.A, It.B, 4));
        if (Result<void> V = EmitAddr(At + 4, abi::TmpReg, It.Sym); !V)
          return V.error();
        EmitInstr(At + 12, Instruction::jump(Func::Snd, abi::TmpReg,
                                             Operand::reg(abi::TmpReg)));
      }
      break;
    }
    case Kind::Jump: {
      if (!L.Far[I]) {
        Word Target = *findLabel(L.Labels, Externs, It.Sym) + Shift;
        int32_t Delta = static_cast<int32_t>(Target - ItemAddr);
        EmitInstr(At, Instruction::jump(Func::Add, abi::TmpReg,
                                        Operand::imm(Delta)));
      } else {
        if (Result<void> V = EmitAddr(At, abi::TmpReg, It.Sym); !V)
          return V.error();
        EmitInstr(At + 8, Instruction::jump(Func::Snd, abi::TmpReg,
                                            Operand::reg(abi::TmpReg)));
      }
      break;
    }
    case Kind::Call:
      if (Result<void> V = EmitAddr(At, abi::TmpReg, It.Sym); !V)
        return V.error();
      EmitInstr(At + 8, Instruction::jump(Func::Snd, It.Reg,
                                          Operand::reg(abi::TmpReg)));
      break;
    case Kind::Word:
      putWord(&Out.Bytes[At], It.Data);
      break;
    case Kind::Bytes:
      std::copy(It.Blob.begin(), It.Blob.end(), Out.Bytes.begin() + At);
      break;
    }
  }
  return Out;
}

Result<Assembled>
Assembler::assemble(Word BaseAddr,
                    const std::map<std::string, Word> &Externs) const {
  Result<Layout> L = layout(BaseAddr, Externs);
  if (!L)
    return L.error();
  Result<Assembled> Out = encode(*L, Externs, 0);
  if (Out)
    Out->Symbols.insert(Externs.begin(), Externs.end());
  return Out;
}

Result<Fragment> Assembler::fragment() const {
  Result<Layout> L = layout(0);
  if (!L)
    return L.error();
  Fragment F;
  Result<Assembled> Out = encodeWith(*L, {}, 0, &F.Relocs);
  if (!Out)
    return Out.error();
  F.Bytes = std::move(Out->Bytes);
  F.Labels = std::move(L->Labels);
  return F;
}

Result<std::vector<uint8_t>>
Fragment::placeAt(Word BaseAddr,
                  const std::map<std::string, Word> &Later) const {
  std::vector<uint8_t> Out = Bytes;
  for (const Reloc &R : Relocs) {
    Word Value = BaseAddr + R.Target;
    if (!R.Extern.empty()) {
      auto It = Later.find(R.Extern);
      if (It == Later.end())
        return Error("undefined label '" + R.Extern + "'");
      Value = It->second;
    }
    putLiValue(&Out[R.Offset], R.Reg, Value);
  }
  return Out;
}
