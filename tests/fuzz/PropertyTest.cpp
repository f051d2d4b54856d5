//===- tests/fuzz/PropertyTest.cpp - ISA/assembler property tests -----------===//
//
// Property tests backing the conformance fuzzer (DESIGN.md §9):
//
//  - exhaustive opcode-level encode<->decode roundtrips: for every
//    opcode, every meaningful field is swept through its full range (or
//    its boundary lattice where the product would explode), so an
//    encoding regression cannot hide in a corner case the random tests
//    missed;
//  - assembler<->disassembler roundtrips on generator-produced
//    programs: everything the fuzz generator can emit decodes back to
//    an instruction that re-encodes to the identical word;
//  - isa::effectsOf over-approximates the interpreter: every lattice
//    instruction, stepped once from seeded random states, changes only
//    registers, flags and memory bytes its effect masks cover.
//
//===----------------------------------------------------------------------===//

#include "asm/Disassembler.h"
#include "fuzz/Corpus.h"
#include "fuzz/Generator.h"
#include "isa/Effects.h"
#include "isa/Encoding.h"
#include "isa/Interp.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace silver;
using namespace silver::isa;

namespace {

/// The boundary lattice for reg-or-imm operands: both kinds, full
/// register range ends, and the immediate extremes.
std::vector<Operand> operandLattice() {
  return {Operand::reg(0),    Operand::reg(1),  Operand::reg(31),
          Operand::reg(32),   Operand::reg(63), Operand::imm(-32),
          Operand::imm(-1),   Operand::imm(0),  Operand::imm(1),
          Operand::imm(31)};
}

void expectRoundTrip(const Instruction &In) {
  Word Encoded = encode(In);
  Result<Instruction> Out = decode(Encoded);
  ASSERT_TRUE(Out) << toString(In) << ": " << Out.error().str();
  EXPECT_TRUE(In == *Out) << toString(In) << " vs " << toString(*Out);
  EXPECT_EQ(encode(*Out), Encoded) << toString(In);
}

} // namespace

TEST(ExhaustiveRoundTrip, NormalAllFuncsAllRegsOperandLattice) {
  for (unsigned F = 0; F != NumFuncs; ++F)
    for (unsigned W = 0; W != NumRegs; ++W)
      for (const Operand &A : operandLattice())
        for (const Operand &B : operandLattice())
          expectRoundTrip(
              Instruction::normal(static_cast<Func>(F), W, A, B));
}

TEST(ExhaustiveRoundTrip, ShiftAllKindsAllRegsOperandLattice) {
  for (unsigned K = 0; K != NumShiftKinds; ++K)
    for (unsigned W = 0; W != NumRegs; ++W)
      for (const Operand &A : operandLattice())
        for (const Operand &B : operandLattice())
          expectRoundTrip(
              Instruction::shift(static_cast<ShiftKind>(K), W, A, B));
}

TEST(ExhaustiveRoundTrip, MemoryOpsAllRegsOperandLattice) {
  for (unsigned W = 0; W != NumRegs; ++W)
    for (const Operand &A : operandLattice()) {
      expectRoundTrip(Instruction::loadMem(W, A));
      expectRoundTrip(Instruction::loadMemByte(W, A));
    }
  for (const Operand &V : operandLattice())
    for (const Operand &A : operandLattice()) {
      expectRoundTrip(Instruction::storeMem(V, A));
      expectRoundTrip(Instruction::storeMemByte(V, A));
    }
}

TEST(ExhaustiveRoundTrip, LoadConstantFullImmediateSweep) {
  // The imm21 field is small enough to sweep completely for a few
  // register/negate combinations, plus all registers at the extremes.
  for (uint32_t Imm = 0; Imm != (1u << 21); ++Imm) {
    expectRoundTrip(Instruction::loadConstant(0, false, Imm));
    expectRoundTrip(Instruction::loadConstant(63, true, Imm));
  }
  for (unsigned W = 0; W != NumRegs; ++W)
    for (bool Negate : {false, true})
      for (uint32_t Imm : {0u, 1u, 0xfffffu, 0x1fffffu})
        expectRoundTrip(Instruction::loadConstant(W, Negate, Imm));
}

TEST(ExhaustiveRoundTrip, LoadUpperConstantFullSweep) {
  for (unsigned W = 0; W != NumRegs; ++W)
    for (uint32_t Imm = 0; Imm != (1u << 11); ++Imm)
      expectRoundTrip(Instruction::loadUpperConstant(W, Imm));
}

TEST(ExhaustiveRoundTrip, JumpAllFuncsAllLinksOperandLattice) {
  for (unsigned F = 0; F != NumFuncs; ++F)
    for (unsigned W = 0; W != NumRegs; ++W)
      for (const Operand &A : operandLattice())
        expectRoundTrip(Instruction::jump(static_cast<Func>(F), W, A));
}

TEST(ExhaustiveRoundTrip, ConditionalJumpsFullOffsetSweep) {
  // All 1024 word offsets, for every func, at one operand pair; then
  // the operand lattice at the offset extremes.
  for (unsigned F = 0; F != NumFuncs; ++F)
    for (int32_t Off = -512; Off != 512; ++Off) {
      expectRoundTrip(Instruction::jumpIfZero(
          static_cast<Func>(F), Operand::reg(7), Operand::imm(-3), Off));
      expectRoundTrip(Instruction::jumpIfNotZero(
          static_cast<Func>(F), Operand::imm(5), Operand::reg(60), Off));
    }
  for (const Operand &A : operandLattice())
    for (const Operand &B : operandLattice())
      for (int32_t Off : {-512, -1, 0, 1, 511}) {
        expectRoundTrip(Instruction::jumpIfZero(Func::Sub, A, B, Off));
        expectRoundTrip(Instruction::jumpIfNotZero(Func::Equal, A, B, Off));
      }
}

TEST(ExhaustiveRoundTrip, InterruptInOut) {
  expectRoundTrip(Instruction::interrupt());
  for (unsigned W = 0; W != NumRegs; ++W)
    expectRoundTrip(Instruction::in(W));
  for (const Operand &A : operandLattice())
    expectRoundTrip(Instruction::out(A));
}

// --- assembler <-> disassembler on generator output ---

TEST(AsmDisasmRoundTrip, GeneratedProgramsDecodeExactly) {
  for (uint64_t Index = 0; Index != 40; ++Index) {
    fuzz::Profile P =
        static_cast<fuzz::Profile>(Index % fuzz::NumProfiles);
    fuzz::CaseSpec C = fuzz::generateCase(0xa5a5, Index, P);
    Result<stack::Prepared> Prep = fuzz::prepareCase(C);
    ASSERT_TRUE(Prep) << Prep.error().str();
    const std::vector<uint8_t> &Bytes = Prep->Image.Program;
    ASSERT_EQ(Bytes.size() % 4, 0u);

    std::vector<assembler::DecodedInstr> Decoded =
        assembler::decodeRegion(Bytes, Prep->Program.CodeBase);
    ASSERT_EQ(Decoded.size(), Bytes.size() / 4);
    for (const assembler::DecodedInstr &D : Decoded) {
      // The generator emits pure code (no data words), so every slot
      // must decode, re-encode identically, and print.
      ASSERT_TRUE(D.Valid) << "undecodable word at " << D.Addr;
      EXPECT_EQ(isa::encode(D.Instr), D.Encoded);
      EXPECT_FALSE(toString(D.Instr).empty());
    }

    // The listing renderer must cover the whole region too.
    std::vector<assembler::DisasmLine> Lines =
        assembler::disassemble(Bytes, Prep->Program.CodeBase);
    EXPECT_EQ(Lines.size(), Decoded.size());
  }
}

TEST(AsmDisasmRoundTrip, CorpusTextRoundTripsThroughParser) {
  // serialize -> parse -> serialize is a fixpoint for generated cases.
  for (uint64_t Index = 0; Index != fuzz::NumProfiles * 4; ++Index) {
    fuzz::CaseSpec C = fuzz::generateCase(
        77, Index, static_cast<fuzz::Profile>(Index % fuzz::NumProfiles));
    std::string Text = fuzz::serializeCase(C);
    Result<fuzz::CaseSpec> Back = fuzz::parseCase(Text);
    ASSERT_TRUE(Back) << Back.error().str();
    ASSERT_EQ(Back->Items.size(), C.Items.size());
    for (size_t I = 0; I != C.Items.size(); ++I)
      EXPECT_TRUE(Back->Items[I] == C.Items[I]) << "item " << I;
    EXPECT_EQ(Back->StdinData, C.StdinData);
    EXPECT_EQ(Back->CommandLine, C.CommandLine);
    EXPECT_EQ(fuzz::serializeCase(*Back), Text);
  }
}

// --- isa::effectsOf covers every change the interpreter makes ---

namespace {

/// The register ends the lattices sweep as write targets.
constexpr unsigned LatticeRegs[] = {0, 1, 31, 32, 63};

/// One instruction of every opcode per lattice point: the round-trip
/// lattices above, with write registers at the register ends.
std::vector<Instruction> latticeInstructions() {
  std::vector<Instruction> Out;
  for (unsigned W : LatticeRegs) {
    for (const Operand &A : operandLattice()) {
      for (const Operand &B : operandLattice()) {
        for (unsigned F = 0; F != NumFuncs; ++F)
          Out.push_back(Instruction::normal(static_cast<Func>(F), W, A, B));
        for (unsigned K = 0; K != NumShiftKinds; ++K)
          Out.push_back(
              Instruction::shift(static_cast<ShiftKind>(K), W, A, B));
      }
      Out.push_back(Instruction::loadMem(W, A));
      Out.push_back(Instruction::loadMemByte(W, A));
      for (unsigned F = 0; F != NumFuncs; ++F)
        Out.push_back(Instruction::jump(static_cast<Func>(F), W, A));
    }
    Out.push_back(Instruction::loadConstant(W, false, 0x1fffff));
    Out.push_back(Instruction::loadConstant(W, true, 1));
    Out.push_back(Instruction::loadUpperConstant(W, 0x7ff));
    Out.push_back(Instruction::in(W));
  }
  for (const Operand &A : operandLattice()) {
    for (const Operand &B : operandLattice()) {
      Out.push_back(Instruction::storeMem(A, B));
      Out.push_back(Instruction::storeMemByte(A, B));
      for (unsigned F = 0; F != NumFuncs; ++F)
        for (int32_t Off : {-512, 1, 511}) {
          Out.push_back(
              Instruction::jumpIfZero(static_cast<Func>(F), A, B, Off));
          Out.push_back(
              Instruction::jumpIfNotZero(static_cast<Func>(F), A, B, Off));
        }
    }
    Out.push_back(Instruction::out(A));
  }
  Out.push_back(Instruction::interrupt());
  return Out;
}

/// An environment whose In word is never 0, so In's write shows.
struct InputEnv final : IsaEnv {
  Word inputWord(MachineState &) override { return 0x5a5a5a5a; }
};

/// Steps \p I once at a random PC of a random 4 KiB state and checks
/// that each change is covered by effectsOf(I).  Registers hold
/// addresses inside memory, half of them word-aligned, so memory
/// operations through a register mostly succeed.
void expectEffectsCover(const Instruction &I, Rng &R) {
  constexpr Word MemBytes = 4096;
  MachineState Before(MemBytes);
  for (Word A = 0; A != MemBytes; A += 4)
    Before.writeWord(A, R.next32());
  for (Word &Reg : Before.Regs)
    Reg = R.below(MemBytes) & (R.below(2) ? ~3u : ~0u);
  Before.CarryFlag = R.below(2);
  Before.OverflowFlag = R.below(2);
  Before.DataOut = R.next32();
  Before.PC = R.below(MemBytes / 4) * 4;
  Before.writeWord(Before.PC, encode(I));

  MachineState After = Before;
  InputEnv Env;
  StepResult S = step(After, Env);
  EffectInfo E = effectsOf(I);
  std::string What = toString(I) + " at " + std::to_string(Before.PC);

  for (unsigned Reg = 0; Reg != NumRegs; ++Reg)
    EXPECT_TRUE(After.Regs[Reg] == Before.Regs[Reg] || E.writes(Reg))
        << What << " wrote r" << Reg;
  EXPECT_TRUE((After.CarryFlag == Before.CarryFlag &&
               After.OverflowFlag == Before.OverflowFlag) ||
              E.WritesFlags)
      << What << " wrote the flags";
  EXPECT_TRUE(After.DataOut == Before.DataOut || E.IsIo)
      << What << " wrote the data-out port";
  EXPECT_TRUE(!S.ok() || E.IsControl || After.PC == Before.PC + 4)
      << What << " moved the PC to " << After.PC;
  Word Addr = Before.operandValue(I.B); // a store's address operand
  for (Word A = 0; A != MemBytes; ++A)
    EXPECT_TRUE(After.readByte(A) == Before.readByte(A) ||
                (E.Mem == MemAccessKind::Write && A - Addr < E.MemSize))
        << What << " wrote byte " << A;
}

} // namespace

TEST(EffectsProperty, EffectsOfCoversEveryLatticeStep) {
  Rng R(0xeffec75);
  std::vector<Instruction> Insns = latticeInstructions();
  for (const Instruction &I : Insns)
    for (int State = 0; State != 2; ++State)
      expectEffectsCover(I, R);
}
