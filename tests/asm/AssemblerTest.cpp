//===- tests/asm/AssemblerTest.cpp - assembler and disassembler tests ----------===//

#include "asm/Assembler.h"
#include "asm/Disassembler.h"
#include "isa/Interp.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace silver;
using namespace silver::assembler;
using isa::Func;
using isa::Instruction;
using isa::Operand;

namespace {

isa::MachineState load(const Assembled &A, size_t MemBytes = 1 << 16) {
  isa::MachineState S(MemBytes);
  for (size_t I = 0; I != A.Bytes.size(); ++I)
    S.Memory[A.BaseAddr + I] = A.Bytes[I];
  S.PC = A.BaseAddr;
  return S;
}

} // namespace

TEST(Assembler, EmitLiSmallUsesOneInstruction) {
  Assembler A;
  A.emitLi(1, 42);
  A.emitLi(2, 0x1fffff);
  Result<Assembled> R = A.assemble(0);
  ASSERT_TRUE(R);
  EXPECT_EQ(R->Bytes.size(), 8u);
}

TEST(Assembler, EmitLiNegatedUsesOneInstruction) {
  Assembler A;
  A.emitLi(1, static_cast<Word>(-5));
  Result<Assembled> R = A.assemble(0);
  ASSERT_TRUE(R);
  EXPECT_EQ(R->Bytes.size(), 4u);
  isa::MachineState S = load(*R);
  isa::step(S, isa::nullEnv());
  EXPECT_EQ(S.Regs[1], static_cast<Word>(-5));
}

TEST(Assembler, EmitLiLargeUsesTwoInstructions) {
  Assembler A;
  A.emitLi(1, 0xdeadbeef);
  Result<Assembled> R = A.assemble(0);
  ASSERT_TRUE(R);
  EXPECT_EQ(R->Bytes.size(), 8u);
  isa::MachineState S = load(*R);
  isa::step(S, isa::nullEnv());
  isa::step(S, isa::nullEnv());
  EXPECT_EQ(S.Regs[1], 0xdeadbeefu);
}

class EmitLiSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(EmitLiSweep, LoadsExactValue) {
  Rng R(GetParam() + 99);
  for (int I = 0; I != 100; ++I) {
    Word V = R.next32();
    Assembler A;
    A.emitLi(7, V);
    A.emitHalt();
    Result<Assembled> Out = A.assemble(0);
    ASSERT_TRUE(Out);
    isa::MachineState S = load(*Out);
    isa::run(S, isa::nullEnv(), 10);
    EXPECT_EQ(S.Regs[7], V);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, EmitLiSweep, ::testing::Range(0u, 4u));

TEST(Assembler, LabelsResolve) {
  Assembler A;
  A.label("start");
  A.word(0);
  A.label("after");
  Result<Assembled> R = A.assemble(0x1000);
  ASSERT_TRUE(R);
  EXPECT_EQ(R->addressOf("start"), 0x1000u);
  EXPECT_EQ(R->addressOf("after"), 0x1004u);
}

TEST(Assembler, DuplicateLabelFails) {
  Assembler A;
  A.label("x");
  A.label("x");
  Result<Assembled> R = A.assemble(0);
  ASSERT_FALSE(R);
  EXPECT_NE(R.error().message().find("duplicate"), std::string::npos);
}

TEST(Assembler, UndefinedLabelFails) {
  Assembler A;
  A.emitJump("nowhere");
  Result<Assembled> R = A.assemble(0);
  ASSERT_FALSE(R);
  EXPECT_NE(R.error().message().find("undefined"), std::string::npos);
}

TEST(Assembler, ExternSymbolsResolve) {
  Assembler A;
  A.emitLiLabel(1, "external");
  Result<Assembled> R = A.assemble(0, {{"external", 0xcafe00}});
  ASSERT_TRUE(R);
  isa::MachineState S = load(*R, 1 << 24);
  isa::step(S, isa::nullEnv());
  isa::step(S, isa::nullEnv());
  EXPECT_EQ(S.Regs[1], 0xcafe00u);
}

TEST(Assembler, NearBranchStaysShort) {
  Assembler A;
  A.emitBranch(true, Func::Snd, Operand::imm(0), Operand::reg(1), "t");
  A.word(0);
  A.label("t");
  Result<Assembled> R = A.assemble(0);
  ASSERT_TRUE(R);
  EXPECT_EQ(R->Bytes.size(), 8u); // one branch + one data word
}

TEST(Assembler, FarBranchIsRelaxed) {
  // Target beyond the 10-bit word offset forces the 4-instruction form.
  Assembler A;
  A.emitBranch(true, Func::Snd, Operand::imm(0), Operand::reg(1), "far");
  for (int I = 0; I != 600; ++I)
    A.word(0);
  A.label("far");
  A.emitHalt();
  Result<Assembled> R = A.assemble(0);
  ASSERT_TRUE(R);
  EXPECT_EQ(R->Bytes.size(), 16u + 600 * 4 + 4);
}

TEST(Assembler, FarBranchExecutesCorrectly) {
  for (bool TakeIt : {true, false}) {
    Assembler A;
    A.emitLi(1, TakeIt ? 0 : 1);
    A.emitBranch(true, Func::Snd, Operand::imm(0), Operand::reg(1), "far");
    A.emitLi(2, 111); // fall-through path
    A.emitHalt();
    for (int I = 0; I != 600; ++I)
      A.word(0);
    A.label("far");
    A.emitLi(2, 222);
    A.emitHalt();
    Result<Assembled> R = A.assemble(0);
    ASSERT_TRUE(R);
    isa::MachineState S = load(*R, 1 << 16);
    isa::RunResult Run = isa::run(S, isa::nullEnv(), 1000);
    ASSERT_TRUE(Run.Halted);
    EXPECT_EQ(S.Regs[2], TakeIt ? 222u : 111u);
  }
}

TEST(Assembler, BackwardFarBranch) {
  Assembler A;
  A.emitJump("over");
  A.label("back");
  A.emitLi(2, 77);
  A.emitHalt();
  for (int I = 0; I != 600; ++I)
    A.word(0);
  A.label("over");
  A.emitBranch(false, Func::Snd, Operand::imm(0), Operand::imm(1), "back");
  Result<Assembled> R = A.assemble(0);
  ASSERT_TRUE(R);
  isa::MachineState S = load(*R, 1 << 16);
  isa::RunResult Run = isa::run(S, isa::nullEnv(), 1000);
  ASSERT_TRUE(Run.Halted);
  EXPECT_EQ(S.Regs[2], 77u);
}

TEST(Assembler, JumpShortAndFar) {
  // Short forward jump.
  Assembler A;
  A.emitJump("t");
  A.emitLi(1, 1);
  A.label("t");
  A.emitLi(2, 2);
  A.emitHalt();
  Result<Assembled> R = A.assemble(0);
  ASSERT_TRUE(R);
  isa::MachineState S = load(*R);
  isa::run(S, isa::nullEnv(), 100);
  EXPECT_EQ(S.Regs[1], 0u);
  EXPECT_EQ(S.Regs[2], 2u);

  // Far jump over a big hole.
  Assembler B;
  B.emitJump("t");
  for (int I = 0; I != 100; ++I)
    B.word(0);
  B.label("t");
  B.emitLi(2, 5);
  B.emitHalt();
  Result<Assembled> R2 = B.assemble(0);
  ASSERT_TRUE(R2);
  isa::MachineState T = load(*R2);
  isa::RunResult Run = isa::run(T, isa::nullEnv(), 100);
  ASSERT_TRUE(Run.Halted);
  EXPECT_EQ(T.Regs[2], 5u);
}

TEST(Assembler, CallAndRet) {
  Assembler A;
  A.emitCall("fn");
  A.emitLi(2, 9);
  A.emitHalt();
  A.label("fn");
  A.emitLi(1, 4);
  A.emitRet();
  Result<Assembled> R = A.assemble(0);
  ASSERT_TRUE(R);
  isa::MachineState S = load(*R);
  isa::RunResult Run = isa::run(S, isa::nullEnv(), 100);
  ASSERT_TRUE(Run.Halted);
  EXPECT_EQ(S.Regs[1], 4u);
  EXPECT_EQ(S.Regs[2], 9u);
}

TEST(Assembler, DataDirectives) {
  Assembler A;
  A.word(0x11223344);
  A.ascii("ab");
  A.align(4);
  A.space(8);
  A.label("end");
  Result<Assembled> R = A.assemble(0);
  ASSERT_TRUE(R);
  EXPECT_EQ(R->Bytes.size(), 16u);
  EXPECT_EQ(R->Bytes[0], 0x44u);
  EXPECT_EQ(R->Bytes[4], 'a');
  EXPECT_EQ(R->Bytes[5], 'b');
  EXPECT_EQ(R->addressOf("end"), 16u);
}

TEST(Assembler, AlignmentDependsOnBase) {
  Assembler A;
  A.bytes({1});
  A.align(8);
  A.label("aligned");
  Result<Assembled> R = A.assemble(8);
  ASSERT_TRUE(R);
  EXPECT_EQ(R->addressOf("aligned") % 8, 0u);
}

TEST(Disassembler, RoundTripsInstructions) {
  Assembler A;
  A.emit(Instruction::normal(Func::Add, 1, Operand::reg(2),
                             Operand::imm(3)));
  A.emitHalt();
  Result<Assembled> R = A.assemble(0);
  ASSERT_TRUE(R);
  std::vector<DisasmLine> Lines = disassemble(R->Bytes, 0);
  ASSERT_EQ(Lines.size(), 2u);
  EXPECT_TRUE(Lines[0].Valid);
  EXPECT_EQ(Lines[0].Text, "add r1, r2, #3");
  EXPECT_EQ(Lines[1].Text, "halt (r63)");
  std::string Listing = formatListing(Lines);
  EXPECT_NE(Listing.find("0x00000000"), std::string::npos);
}

TEST(Disassembler, InvalidWordsAndTrailingBytes) {
  std::vector<uint8_t> Bytes = {0, 0, 0, 0xf0, 0xaa};
  std::vector<DisasmLine> Lines = disassemble(Bytes, 0x100);
  ASSERT_EQ(Lines.size(), 2u);
  EXPECT_FALSE(Lines[0].Valid);
  EXPECT_NE(Lines[0].Text.find(".word"), std::string::npos);
  EXPECT_NE(Lines[1].Text.find(".byte"), std::string::npos);
}

namespace {

/// A start with a near and a far branch, a call and address loads of
/// its own labels and of labels defined only after it.
void emitStart(Assembler &A) {
  A.label("start");
  A.emitBranch(true, Func::Snd, Operand::imm(0), Operand::reg(1), "near");
  A.emitBranch(false, Func::Snd, Operand::imm(0), Operand::reg(1), "far");
  A.label("near");
  A.emitCall("main");
  A.emitLiLabel(2, "data");
  A.emitLiLabel(3, "far");
  for (int I = 0; I != 600; ++I)
    A.word(static_cast<Word>(I));
  A.label("far");
  A.emitJump("start");
}

void emitRest(Assembler &A) {
  A.label("main");
  A.emitJump("near");
  A.emitLiLabel(4, "start");
  A.align(4);
  A.label("data");
  A.ascii("abc");
}

} // namespace

TEST(Assembler, FragmentPlacedAtABaseMatchesOneAssembly) {
  Assembler Whole;
  emitStart(Whole);
  emitRest(Whole);
  Assembler Start, Rest;
  emitStart(Start);
  emitRest(Rest);
  Result<Fragment> F = Start.fragment();
  ASSERT_TRUE(F) << F.error().str();
  for (Word Base : {0x0u, 0x3000u, 0x7ff000u}) {
    Result<Assembled> Ref = Whole.assemble(Base);
    ASSERT_TRUE(Ref);
    // The rest is laid out once, after the fragment at 0, and encoded
    // where the image lands.
    Word Size = static_cast<Word>(F->Bytes.size());
    Result<Layout> L = Rest.layout(Size, F->Labels);
    ASSERT_TRUE(L) << L.error().str();
    Result<Assembled> Tail = Rest.encode(*L, F->Labels, Base);
    ASSERT_TRUE(Tail) << Tail.error().str();
    Result<std::vector<uint8_t>> Head = F->placeAt(Base, Tail->Symbols);
    ASSERT_TRUE(Head) << Head.error().str();
    std::vector<uint8_t> Bytes = Head.take();
    Bytes.insert(Bytes.end(), Tail->Bytes.begin(), Tail->Bytes.end());
    EXPECT_TRUE(Bytes == Ref->Bytes) << "base " << Base;
    EXPECT_EQ(Tail->Symbols.at("data"), Ref->addressOf("data"));
  }
}

TEST(Assembler, FragmentBranchesMustStayInside) {
  // A branch's form depends on the distance to a label the fragment
  // does not place.
  Assembler A;
  A.emitBranch(true, Func::Snd, Operand::imm(0), Operand::reg(1), "later");
  Result<Fragment> F = A.fragment();
  ASSERT_FALSE(F);
  EXPECT_NE(F.error().message().find("undefined label 'later'"),
            std::string::npos);
}

TEST(Assembler, LayoutMovesOnlyByItsAlignment) {
  Assembler A;
  A.ascii("x");
  A.align(8);
  A.label("aligned");
  A.word(1);
  Result<Layout> L = A.layout(0);
  ASSERT_TRUE(L);
  EXPECT_TRUE(A.encode(*L, {}, 0x1000));
  Result<Assembled> Moved = A.encode(*L, {}, 4);
  ASSERT_FALSE(Moved);
  EXPECT_NE(Moved.error().message().find("alignment is 8"), std::string::npos);
}

TEST(Assembler, UndefinedAddressLoadIsAnError) {
  Assembler A;
  A.emitLiLabel(1, "nowhere");
  Result<Assembled> R = A.assemble(0);
  ASSERT_FALSE(R);
  EXPECT_NE(R.error().message().find("undefined label 'nowhere'"),
            std::string::npos);
}
