//===- hdl/FastSim.cpp - Tape interpreter for the subset ---------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "hdl/FastSim.h"

using namespace silver;
using namespace silver::hdl;

namespace {

/// The value of the low 64 - \p Sh bits of \p X, sign-extended.
int64_t signedFrom(unsigned Sh, uint64_t X) {
  return static_cast<int64_t>(X << Sh) >> Sh;
}

/// Runs \p Code once over the slots \p S and the memories \p Mems: one
/// cycle.  Returns the instruction that failed, or null.
const Instr *runTape(const Instr *Code, uint64_t *S,
                     std::vector<std::vector<uint64_t>> &Mems) {
  for (const Instr *P = Code;;) {
    const Instr &In = *P++;
    switch (In.Code) {
    case Op::Copy:
      S[In.D] = S[In.A];
      break;
    case Op::Add:
      S[In.D] = (S[In.A] + S[In.B]) & In.Imm;
      break;
    case Op::Sub:
      S[In.D] = (S[In.A] - S[In.B]) & In.Imm;
      break;
    case Op::Mul:
      S[In.D] = (S[In.A] * S[In.B]) & In.Imm;
      break;
    case Op::And:
      S[In.D] = S[In.A] & S[In.B];
      break;
    case Op::Or:
      S[In.D] = S[In.A] | S[In.B];
      break;
    case Op::Xor:
      S[In.D] = S[In.A] ^ S[In.B];
      break;
    case Op::Eq:
      S[In.D] = S[In.A] == S[In.B];
      break;
    case Op::LtU:
      S[In.D] = S[In.A] < S[In.B];
      break;
    case Op::LtS:
      S[In.D] = signedFrom(In.Sh, S[In.A]) < signedFrom(In.Sh, S[In.B]);
      break;
    case Op::Shl:
      S[In.D] = S[In.B] >= In.Sh ? 0 : (S[In.A] << S[In.B]) & In.Imm;
      break;
    case Op::ShrL:
      S[In.D] = S[In.B] >= In.Sh ? 0 : S[In.A] >> S[In.B];
      break;
    case Op::ShrA: {
      int64_t V = signedFrom(In.Sh, S[In.A]);
      uint64_t Amount = S[In.B];
      uint64_t R = Amount >= 64u - In.Sh ? (V < 0 ? ~uint64_t(0) : 0)
                                         : static_cast<uint64_t>(V >> Amount);
      S[In.D] = R & In.Imm;
      break;
    }
    case Op::Not:
      S[In.D] = ~S[In.A] & In.Imm;
      break;
    case Op::IsZero:
      S[In.D] = S[In.A] == 0;
      break;
    case Op::NonZero:
      S[In.D] = S[In.A] != 0;
      break;
    case Op::Slice:
      S[In.D] = (S[In.A] >> In.Sh) & In.Imm;
      break;
    case Op::Concat:
      S[In.D] = (S[In.A] << In.Sh) | S[In.B];
      break;
    case Op::SignExt:
      S[In.D] = static_cast<uint64_t>(signedFrom(In.Sh, S[In.A])) & In.Imm;
      break;
    case Op::Select:
      S[In.D] = S[In.A] != 0 ? S[In.B] : S[In.Imm];
      break;
    case Op::MemRead:
      S[In.D] = Mems[In.B][S[In.A]];
      break;
    case Op::MemReadChecked: {
      const std::vector<uint64_t> &Mem = Mems[In.B];
      uint64_t Index = S[In.A];
      if (Index >= Mem.size())
        return &In;
      S[In.D] = Mem[Index];
      break;
    }
    case Op::JumpIfZero:
      if (S[In.A] == 0)
        P = Code + In.D;
      break;
    case Op::Jump:
      P = Code + In.D;
      break;
    case Op::Latch:
      S[In.D] = S[In.A];
      S[In.D + 1] = 1;
      break;
    case Op::MemLatch:
      S[In.D] = S[In.A];
      S[In.D + 1] = S[In.B];
      S[In.D + 2] = 1;
      break;
    case Op::Commit:
      if (S[In.A + 1] != 0) {
        S[In.D] = S[In.A];
        S[In.A + 1] = 0;
      }
      break;
    case Op::MemCommit:
      if (S[In.A + 2] != 0) {
        Mems[In.B][S[In.A]] = S[In.A + 1];
        S[In.A + 2] = 0;
      }
      break;
    case Op::MemCommitChecked:
      if (S[In.A + 2] != 0) {
        std::vector<uint64_t> &Mem = Mems[In.B];
        uint64_t Index = S[In.A];
        if (Index >= Mem.size())
          return &In;
        Mem[Index] = S[In.A + 1];
        S[In.A + 2] = 0;
      }
      break;
    case Op::Halt:
      return nullptr;
    }
  }
}

} // namespace

FastSim::FastSim(Tape T)
    : ModuleSim(std::make_shared<const CompiledLayout>(std::move(T.Layout)),
                std::move(T.Slots)),
      Code(std::move(T.Code)), Flags(std::move(T.Flags)) {}

Result<std::unique_ptr<FastSim>> FastSim::compile(const VModule &M) {
  Result<Tape> T = lowerModule(M);
  if (!T)
    return T.error();
  return std::unique_ptr<FastSim>(new FastSim(T.take()));
}

int FastSim::cycle() {
  const Instr *Bad = runTape(Code.data(), Slots.data(), Mems);
  if (!Bad)
    return 0;
  // A later cycle must not commit a latch this one left set.
  for (uint32_t Flag : Flags)
    Slots[Flag] = 0;
  return memFault(Bad->B, Bad->Code == Op::MemReadChecked);
}
