//===- fuzz/Generator.cpp - Seeded Silver program generators ----------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Generator.h"

#include "isa/Abi.h"
#include "support/Rng.h"
#include "sys/Syscalls.h"

#include <algorithm>
#include <cassert>
#include <set>

using namespace silver;
using namespace silver::fuzz;
using isa::Func;
using isa::Instruction;
using isa::Operand;

const char *silver::fuzz::profileName(Profile P) {
  switch (P) {
  case Profile::Alu:
    return "alu";
  case Profile::Branchy:
    return "branchy";
  case Profile::LoadStore:
    return "loadstore";
  case Profile::Ffi:
    return "ffi";
  case Profile::Mixed:
    return "mixed";
  }
  return "?";
}

bool silver::fuzz::parseProfile(const std::string &Name, Profile &Out) {
  for (unsigned I = 0; I != NumProfiles; ++I) {
    Profile P = static_cast<Profile>(I);
    if (Name == profileName(P)) {
      Out = P;
      return true;
    }
  }
  return false;
}

bool ProgItem::operator==(const ProgItem &O) const {
  return K == O.K && Instr == O.Instr && Reg == O.Reg && Value == O.Value &&
         Target == O.Target && WhenZero == O.WhenZero && F == O.F &&
         A == O.A && B == O.B && FfiIndex == O.FfiIndex &&
         ConfAddr == O.ConfAddr && ConfLen == O.ConfLen &&
         BytesAddr == O.BytesAddr && BytesLen == O.BytesLen;
}

bool CaseSpec::hasFfi() const {
  for (const ProgItem &It : Items)
    if (It.K == ProgItem::Kind::Ffi)
      return true;
  return false;
}

sys::LayoutParams silver::fuzz::fuzzLayoutParams() {
  sys::LayoutParams P;
  P.MemSize = 1u << 20;
  P.CmdlineCap = 256;
  P.StdinCap = 4096;
  P.OutBufCap = 4096 + 16;
  return P;
}

const sys::MemoryLayout &silver::fuzz::fuzzLayout() {
  // HeapBase/SyscallCodeBase depend only on the capacities, so any
  // nominal program size gives the same values (sys/Layout.cpp).
  static const sys::MemoryLayout Layout =
      sys::MemoryLayout::compute(fuzzLayoutParams(), 4096).take();
  return Layout;
}

uint64_t silver::fuzz::caseSeed(uint64_t Seed, uint64_t Index) {
  uint64_t Z = Seed + 0x9e3779b97f4a7c15ull * (Index + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

namespace {

/// Builder state for one case.
struct Gen {
  Rng R;
  CaseSpec C;
  unsigned NextLabel = 0;
  /// Forward labels waiting to be placed: (label id, items to go).
  std::vector<std::pair<unsigned, unsigned>> Pending;
  /// Open down-counted loops: (head label id, counter register).
  std::vector<std::pair<unsigned, unsigned>> Loops;
  Word HeapBase;
  /// The heap window all memory traffic stays inside.  Well below
  /// usableSize() for any program the generator can produce.
  static constexpr Word HeapSpan = 16 << 10;

  explicit Gen(uint64_t Seed, uint64_t Index, Profile P)
      : R(caseSeed(Seed, Index)), HeapBase(fuzzLayout().HeapBase) {
    C.Seed = Seed;
    C.Index = Index;
    C.P = P;
  }

  unsigned dataReg() { return DataRegLo + R.below(DataRegHi - DataRegLo + 1); }

  Operand src() {
    if (R.chance(2, 5))
      return Operand::imm(R.range(-32, 31));
    return Operand::reg(dataReg());
  }

  void push(ProgItem It) {
    C.Items.push_back(std::move(It));
    // Count down the pending forward labels and place any that are due.
    for (size_t I = 0; I != Pending.size();) {
      if (--Pending[I].second == 0) {
        placeLabel(Pending[I].first);
        Pending.erase(Pending.begin() + I);
      } else {
        ++I;
      }
    }
  }

  void instr(const Instruction &I) {
    ProgItem It;
    It.K = ProgItem::Kind::Instr;
    It.Instr = I;
    push(std::move(It));
  }

  void li(unsigned Reg, Word Value) {
    ProgItem It;
    It.K = ProgItem::Kind::Li;
    It.Reg = static_cast<uint8_t>(Reg);
    It.Value = Value;
    push(std::move(It));
  }

  void placeLabel(unsigned Id) {
    ProgItem It;
    It.K = ProgItem::Kind::Label;
    It.Target = Id;
    C.Items.push_back(std::move(It)); // no countdown: labels are free
  }

  // --- item generators ---

  void aluItem() {
    if (R.chance(1, 5)) {
      Operand Amt = R.chance(1, 2) ? Operand::imm(R.below(32))
                                   : Operand::reg(dataReg());
      instr(Instruction::shift(
          static_cast<isa::ShiftKind>(R.below(isa::NumShiftKinds)), dataReg(),
          src(), Amt));
      return;
    }
    if (R.chance(1, 6)) {
      li(dataReg(), static_cast<Word>(R.next32()));
      return;
    }
    Func F = static_cast<Func>(R.below(isa::NumFuncs));
    instr(Instruction::normal(F, dataReg(), src(), src()));
  }

  void loadStoreItem() {
    unsigned AddrReg = AddrRegLo + R.below(5);
    bool ByteOp = R.chance(2, 5);
    Word Off = R.below(HeapSpan);
    if (!ByteOp)
      Off &= ~3u; // word accesses must be aligned
    li(AddrReg, HeapBase + Off);
    switch (R.below(4)) {
    case 0:
      instr(ByteOp ? Instruction::loadMemByte(dataReg(), Operand::reg(AddrReg))
                   : Instruction::loadMem(dataReg(), Operand::reg(AddrReg)));
      break;
    case 1:
      instr(ByteOp
                ? Instruction::storeMemByte(src(), Operand::reg(AddrReg))
                : Instruction::storeMem(src(), Operand::reg(AddrReg)));
      break;
    case 2: // store then load back through the same register
      instr(ByteOp
                ? Instruction::storeMemByte(src(), Operand::reg(AddrReg))
                : Instruction::storeMem(src(), Operand::reg(AddrReg)));
      instr(ByteOp ? Instruction::loadMemByte(dataReg(), Operand::reg(AddrReg))
                   : Instruction::loadMem(dataReg(), Operand::reg(AddrReg)));
      break;
    default: // address arithmetic feeding a load
      instr(Instruction::normal(Func::Add, AddrReg, Operand::reg(AddrReg),
                                Operand::imm(0)));
      instr(ByteOp ? Instruction::loadMemByte(dataReg(), Operand::reg(AddrReg))
                   : Instruction::loadMem(dataReg(), Operand::reg(AddrReg)));
      break;
    }
  }

  void forwardBranchItem() {
    unsigned Id = NextLabel++;
    ProgItem It;
    if (R.chance(1, 4)) {
      It.K = ProgItem::Kind::Jump;
      It.Target = Id;
    } else {
      It.K = ProgItem::Kind::Branch;
      It.Target = Id;
      It.WhenZero = R.chance(1, 2);
      It.F = static_cast<Func>(R.below(isa::NumFuncs));
      It.A = src();
      It.B = src();
    }
    push(std::move(It));
    // The label lands 1..6 items downstream; anything still pending at
    // the end of the body is placed just before the epilogue.
    Pending.emplace_back(Id, 1 + R.below(6));
  }

  void openLoop() {
    // Place any pending forward labels first: a branch from before the
    // loop must not be able to land past the counter initialisation.
    for (auto &[Id, Countdown] : Pending)
      placeLabel(Id);
    Pending.clear();
    unsigned Ctr = LoopRegLo + static_cast<unsigned>(Loops.size());
    unsigned Head = NextLabel++;
    li(Ctr, 1 + R.below(6));
    placeLabel(Head);
    Loops.emplace_back(Head, Ctr);
  }

  void closeLoop() {
    auto [Head, Ctr] = Loops.back();
    Loops.pop_back();
    // Dec leaves the flags alone, so the loop spine never perturbs the
    // carry/overflow state the body computed.
    instr(Instruction::normal(Func::Dec, Ctr, Operand::reg(Ctr),
                              Operand::imm(0)));
    ProgItem It;
    It.K = ProgItem::Kind::Branch;
    It.Target = Head;
    It.WhenZero = false;
    It.F = Func::Snd;
    It.A = Operand::imm(0);
    It.B = Operand::reg(Ctr);
    C.Items.push_back(std::move(It)); // no countdown: keep loops compact
  }

  void branchyItem() {
    if (Loops.size() < 2 && R.chance(1, 6)) {
      openLoop();
      return;
    }
    if (!Loops.empty() && R.chance(1, 4)) {
      closeLoop();
      return;
    }
    if (R.chance(1, 3)) {
      forwardBranchItem();
      return;
    }
    aluItem();
  }

  /// Writes \p Data byte-for-byte at \p Addr via stores.  Values above
  /// the 6-bit immediate range go through the FFI value register.
  void storeBytes(Word Addr, const std::vector<uint8_t> &Data) {
    for (size_t I = 0; I != Data.size(); ++I) {
      unsigned AddrReg = AddrRegLo;
      li(AddrReg, Addr + static_cast<Word>(I));
      if (Data[I] <= 31) {
        instr(Instruction::storeMemByte(Operand::imm(Data[I]),
                                        Operand::reg(AddrReg)));
      } else {
        li(FfiValReg, Data[I]);
        instr(Instruction::storeMemByte(Operand::reg(FfiValReg),
                                        Operand::reg(AddrReg)));
      }
    }
  }

  /// Emits the buffer setup plus the Ffi item for one well-formed call.
  /// \p Slot keeps concurrent calls' buffers disjoint.
  void ffiCallItem(unsigned Slot) {
    // Buffer slots live at the bottom of the heap window, clear of the
    // random load/store traffic only in expectation — overlap is fine,
    // both levels see the same memory.
    Word ConfAddr = HeapBase + 0x40 * Slot;
    Word BytesAddr = HeapBase + 0x400 + 0x80 * Slot;

    using sys::FfiIndex;
    static constexpr FfiIndex Calls[] = {FfiIndex::Read, FfiIndex::Write,
                                         FfiIndex::GetArgCount,
                                         FfiIndex::GetArgLength,
                                         FfiIndex::GetArg};
    FfiIndex Call = Calls[R.below(5)];

    std::vector<uint8_t> Conf;
    std::vector<uint8_t> Bytes;
    switch (Call) {
    case FfiIndex::Read: {
      Conf.assign(8, 0); // fd 0 = stdin, big-endian
      unsigned Payload = 4 + R.below(13); // room for 4..16 bytes
      Bytes.assign(4 + Payload, 0);
      // bytes[0..1] = requested count, <= |bytes| - 4 so the call can't
      // hit the monadic-assertion failure path.
      Bytes[1] = static_cast<uint8_t>(Payload);
      break;
    }
    case FfiIndex::Write: {
      Conf.assign(8, 0);
      Conf[7] = static_cast<uint8_t>(1 + R.below(2)); // stdout or stderr
      unsigned Count = R.below(13);
      Bytes.assign(4 + Count, 0);
      Bytes[1] = static_cast<uint8_t>(Count); // count; offset stays 0
      for (unsigned I = 0; I != Count; ++I)
        Bytes[4 + I] = static_cast<uint8_t>(' ' + R.below(95));
      break;
    }
    case FfiIndex::GetArgCount:
    case FfiIndex::GetArgLength:
      Bytes.assign(2, 0); // index 0 = "fuzz"
      break;
    case FfiIndex::GetArg:
      Bytes.assign(4, 0); // holds |"fuzz"| bytes, index 0
      break;
    default:
      assert(false && "unreachable");
    }

    storeBytes(ConfAddr, Conf);
    storeBytes(BytesAddr, Bytes);

    ProgItem It;
    It.K = ProgItem::Kind::Ffi;
    It.FfiIndex = static_cast<unsigned>(Call);
    It.ConfAddr = ConfAddr;
    It.ConfLen = static_cast<Word>(Conf.size());
    It.BytesAddr = BytesAddr;
    It.BytesLen = static_cast<Word>(Bytes.size());
    push(std::move(It));
  }

  CaseSpec build() {
    unsigned Budget = 8 + R.below(40);
    unsigned FfiCalls =
        C.P == Profile::Ffi ? 1 + R.below(3)
                            : (C.P == Profile::Mixed && R.chance(1, 3) ? 1 : 0);
    if (FfiCalls > 0)
      C.StdinData.assign(16 + R.below(48), '\0');
    for (char &Ch : C.StdinData)
      Ch = static_cast<char>(' ' + R.below(95));

    for (unsigned I = 0; I != Budget; ++I) {
      switch (C.P) {
      case Profile::Alu:
        aluItem();
        break;
      case Profile::Branchy:
        branchyItem();
        break;
      case Profile::LoadStore:
        R.chance(1, 3) ? aluItem() : loadStoreItem();
        break;
      case Profile::Ffi:
        aluItem();
        if (FfiCalls > 0 && R.chance(1, 4)) {
          ffiCallItem(--FfiCalls);
        }
        break;
      case Profile::Mixed:
        switch (R.below(4)) {
        case 0:
          aluItem();
          break;
        case 1:
          branchyItem();
          break;
        case 2:
          loadStoreItem();
          break;
        default:
          if (FfiCalls > 0) {
            ffiCallItem(--FfiCalls);
          } else {
            aluItem();
          }
          break;
        }
        break;
      }
    }
    // Spend any FFI calls the item loop didn't get to.
    while (FfiCalls > 0)
      ffiCallItem(--FfiCalls);
    while (!Loops.empty())
      closeLoop();
    for (auto &[Id, Countdown] : Pending)
      placeLabel(Id);
    Pending.clear();
    return std::move(C);
  }
};

} // namespace

CaseSpec silver::fuzz::generateCase(uint64_t Seed, uint64_t Index, Profile P) {
  return Gen(Seed, Index, P).build();
}

void silver::fuzz::emitProgram(const CaseSpec &C, assembler::Assembler &A) {
  std::set<unsigned> Defined;
  for (const ProgItem &It : C.Items)
    if (It.K == ProgItem::Kind::Label)
      Defined.insert(It.Target);

  auto TargetName = [&](unsigned Id) -> std::string {
    // A branch whose label the shrinker deleted falls through to the
    // epilogue instead of becoming an undefined-symbol error.
    if (!Defined.count(Id))
      return "exit";
    return 'L' + std::to_string(Id);
  };

  for (const ProgItem &It : C.Items) {
    switch (It.K) {
    case ProgItem::Kind::Instr:
      A.emit(It.Instr);
      break;
    case ProgItem::Kind::Li:
      A.emitLi(It.Reg, It.Value);
      break;
    case ProgItem::Kind::Label:
      A.label('L' + std::to_string(It.Target));
      break;
    case ProgItem::Kind::Branch:
      A.emitBranch(It.WhenZero, It.F, It.A, It.B, TargetName(It.Target));
      break;
    case ProgItem::Kind::Jump:
      A.emitJump(TargetName(It.Target));
      break;
    case ProgItem::Kind::Ffi:
      A.emitLi(abi::FfiIndexReg, It.FfiIndex);
      A.emitLi(abi::FfiConfReg, It.ConfAddr);
      A.emitLi(abi::FfiConfLenReg, It.ConfLen);
      A.emitLi(abi::FfiBytesReg, It.BytesAddr);
      A.emitLi(abi::FfiBytesLenReg, It.BytesLen);
      A.emitCall("ffi_dispatch");
      // Re-normalise the flags: the Machine level's interference oracle
      // leaves them at their pre-call values while the real syscall
      // code's ALU work sets them, so post-call flag state is
      // level-dependent by design.  Add recomputes both flags purely
      // from its operands (0 + 0: carry clear, overflow clear), making
      // everything downstream deterministic again across levels.
      A.emit(Instruction::normal(Func::Add, FfiValReg, Operand::imm(0),
                                 Operand::imm(0)));
      break;
    }
  }

  // Epilogue: materialise the flags into registers the digest compares
  // unmasked (the halt self-jump itself clobbers the flags and the link
  // register once on the hardware levels — see fuzz/Oracle.cpp), then
  // halt.
  A.label("exit");
  A.emit(Instruction::normal(Func::Carry, CarryOutReg, Operand::imm(0),
                             Operand::imm(0)));
  A.emit(Instruction::normal(Func::Overflow, OverflowOutReg, Operand::imm(0),
                             Operand::imm(0)));
  A.emitHalt();
}
