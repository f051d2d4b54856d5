//===- tests/isa/InterpTest.cpp - ISA semantics tests --------------------------===//

#include "isa/Interp.h"

#include "isa/DecodeCache.h"

#include <gtest/gtest.h>

using namespace silver;
using namespace silver::isa;

namespace {

/// A small machine preloaded with instructions at address 0.
MachineState makeMachine(const std::vector<Instruction> &Program,
                         size_t MemBytes = 4096) {
  MachineState S(MemBytes);
  for (size_t I = 0; I != Program.size(); ++I)
    S.writeWord(static_cast<Word>(4 * I), encode(Program[I]));
  return S;
}

StepFault stepFault(MachineState &S) {
  return step(S, nullEnv()).Fault;
}

/// `jump F, r5, r5` at pc 8 with r5 = 0x40, through the reference step
/// and through one step of the cached run loop: the target is computed
/// from the old r5, and only then does r5 receive the return address.
void expectLinkWrittenAfterTarget(Func F, Word Target) {
  for (bool Cached : {false, true}) {
    SCOPED_TRACE(Cached ? "cached run" : "step");
    MachineState S(4096);
    S.writeWord(8, encode(Instruction::jump(F, 5, Operand::reg(5))));
    S.PC = 8;
    S.Regs[5] = 0x40;
    if (Cached) {
      DecodeCache C;
      RunResult R = run(S, nullEnv(), C, 1);
      EXPECT_EQ(R.Steps, 1u);
      EXPECT_EQ(R.Fault, StepFault::None);
    } else {
      EXPECT_EQ(stepFault(S), StepFault::None);
    }
    EXPECT_EQ(S.PC, Target);
    EXPECT_EQ(S.Regs[5], 12u);
  }
}

} // namespace

TEST(Alu, AddSetsCarryAndOverflow) {
  AluResult R = evalAlu(Func::Add, 0xffffffff, 1, false, false);
  EXPECT_EQ(R.Value, 0u);
  EXPECT_TRUE(R.Carry);
  EXPECT_FALSE(R.Overflow);
  EXPECT_TRUE(R.FlagsUpdated);

  R = evalAlu(Func::Add, 0x7fffffff, 1, false, false);
  EXPECT_EQ(R.Value, 0x80000000u);
  EXPECT_FALSE(R.Carry);
  EXPECT_TRUE(R.Overflow);
}

TEST(Alu, AddCarryConsumesCarryIn) {
  AluResult R = evalAlu(Func::AddCarry, 1, 2, true, false);
  EXPECT_EQ(R.Value, 4u);
  R = evalAlu(Func::AddCarry, 0xffffffff, 0, true, false);
  EXPECT_EQ(R.Value, 0u);
  EXPECT_TRUE(R.Carry);
}

TEST(Alu, SubCarryMeansNoBorrow) {
  AluResult R = evalAlu(Func::Sub, 5, 3, false, false);
  EXPECT_EQ(R.Value, 2u);
  EXPECT_TRUE(R.Carry);
  R = evalAlu(Func::Sub, 3, 5, false, false);
  EXPECT_EQ(R.Value, 0xfffffffeu);
  EXPECT_FALSE(R.Carry);
  // Signed overflow: INT_MIN - 1.
  R = evalAlu(Func::Sub, 0x80000000u, 1, false, false);
  EXPECT_TRUE(R.Overflow);
}

TEST(Alu, FlagReads) {
  EXPECT_EQ(evalAlu(Func::Carry, 9, 9, true, false).Value, 1u);
  EXPECT_EQ(evalAlu(Func::Carry, 9, 9, false, false).Value, 0u);
  EXPECT_EQ(evalAlu(Func::Overflow, 9, 9, false, true).Value, 1u);
  EXPECT_FALSE(evalAlu(Func::Carry, 9, 9, true, true).FlagsUpdated);
}

TEST(Alu, IncDecOperateOnFirstOperand) {
  EXPECT_EQ(evalAlu(Func::Inc, 7, 100, false, false).Value, 8u);
  EXPECT_EQ(evalAlu(Func::Dec, 7, 100, false, false).Value, 6u);
}

TEST(Alu, MulAndMulHighGive64BitProduct) {
  Word A = 0x12345678, B = 0x9abcdef0;
  uint64_t Wide = uint64_t(A) * B;
  EXPECT_EQ(evalAlu(Func::Mul, A, B, false, false).Value,
            static_cast<Word>(Wide));
  EXPECT_EQ(evalAlu(Func::MulHigh, A, B, false, false).Value,
            static_cast<Word>(Wide >> 32));
}

TEST(Alu, Comparisons) {
  EXPECT_EQ(evalAlu(Func::Equal, 4, 4, false, false).Value, 1u);
  EXPECT_EQ(evalAlu(Func::Equal, 4, 5, false, false).Value, 0u);
  // Signed: -1 < 0; unsigned: 0xffffffff > 0.
  EXPECT_EQ(evalAlu(Func::Less, 0xffffffffu, 0, false, false).Value, 1u);
  EXPECT_EQ(evalAlu(Func::Lower, 0xffffffffu, 0, false, false).Value, 0u);
  EXPECT_EQ(evalAlu(Func::Lower, 0, 1, false, false).Value, 1u);
}

TEST(Alu, LogicAndSnd) {
  EXPECT_EQ(evalAlu(Func::And, 0xff00ff00u, 0x0ff00ff0u, 0, 0).Value,
            0x0f000f00u);
  EXPECT_EQ(evalAlu(Func::Or, 0xf0u, 0x0fu, 0, 0).Value, 0xffu);
  EXPECT_EQ(evalAlu(Func::Xor, 0xffu, 0x0fu, 0, 0).Value, 0xf0u);
  EXPECT_EQ(evalAlu(Func::Snd, 1, 2, 0, 0).Value, 2u);
}

TEST(Shifts, AllKinds) {
  EXPECT_EQ(evalShift(ShiftKind::LogicalLeft, 1, 4), 16u);
  EXPECT_EQ(evalShift(ShiftKind::LogicalRight, 0x80000000u, 31), 1u);
  EXPECT_EQ(evalShift(ShiftKind::ArithRight, 0x80000000u, 31),
            0xffffffffu);
  EXPECT_EQ(evalShift(ShiftKind::RotateRight, 1, 1), 0x80000000u);
  // Shift amounts wrap at 32.
  EXPECT_EQ(evalShift(ShiftKind::LogicalLeft, 3, 32), 3u);
  EXPECT_EQ(evalShift(ShiftKind::LogicalLeft, 3, 33), 6u);
}

TEST(Step, NormalWritesDestination) {
  MachineState S = makeMachine(
      {Instruction::normal(Func::Add, 3, Operand::imm(20),
                           Operand::imm(22))});
  EXPECT_EQ(stepFault(S), StepFault::None);
  EXPECT_EQ(S.Regs[3], 42u);
  EXPECT_EQ(S.PC, 4u);
}

TEST(Step, LoadConstantAndUpper) {
  MachineState S = makeMachine({
      Instruction::loadConstant(1, false, 0x12345),
      Instruction::loadConstant(2, true, 5),
      Instruction::loadUpperConstant(1, 0x7ff),
  });
  stepFault(S);
  EXPECT_EQ(S.Regs[1], 0x12345u);
  stepFault(S);
  EXPECT_EQ(S.Regs[2], static_cast<Word>(-5));
  stepFault(S);
  EXPECT_EQ(S.Regs[1], (0x7ffu << 21) | 0x12345u);
}

TEST(Step, MemoryWordAndByte) {
  MachineState S = makeMachine({
      Instruction::loadConstant(1, false, 0x100),  // address
      Instruction::loadConstant(2, false, 0xabcd), // value
      Instruction::storeMem(Operand::reg(2), Operand::reg(1)),
      Instruction::loadMem(3, Operand::reg(1)),
      Instruction::storeMemByte(Operand::imm(7), Operand::reg(1)),
      Instruction::loadMemByte(4, Operand::reg(1)),
  });
  for (int I = 0; I != 6; ++I)
    ASSERT_EQ(stepFault(S), StepFault::None);
  EXPECT_EQ(S.Regs[3], 0xabcdu);
  EXPECT_EQ(S.Regs[4], 7u);
  EXPECT_EQ(S.readWord(0x100), 0xab07u); // low byte overwritten
}

TEST(Step, MisalignedWordAccessFaults) {
  MachineState S = makeMachine({
      Instruction::loadConstant(1, false, 0x101),
      Instruction::loadMem(3, Operand::reg(1)),
  });
  stepFault(S);
  EXPECT_EQ(stepFault(S), StepFault::MemMisaligned);
}

TEST(Step, OutOfRangeAccessFaults) {
  MachineState S = makeMachine({
      Instruction::loadConstant(1, false, 0x1fffff),
      Instruction::loadUpperConstant(1, 0x7ff), // a huge address
      Instruction::loadMem(3, Operand::reg(1)),
  });
  stepFault(S);
  stepFault(S);
  EXPECT_EQ(stepFault(S), StepFault::MemOutOfRange);
}

TEST(Step, IllegalInstructionFaults) {
  MachineState S(4096);
  S.writeWord(0, 0xf0000000u);
  EXPECT_EQ(stepFault(S), StepFault::IllegalInstruction);
}

TEST(Step, PcOutOfRangeFaults) {
  MachineState S(64);
  S.PC = 64;
  EXPECT_EQ(stepFault(S), StepFault::PcOutOfRange);
  S.PC = 2;
  EXPECT_EQ(stepFault(S), StepFault::PcMisaligned);
}

TEST(Step, JumpAbsoluteAndRelative) {
  MachineState S = makeMachine({
      Instruction::jump(Func::Add, 5, Operand::imm(8)), // relative +8
  });
  stepFault(S);
  EXPECT_EQ(S.PC, 8u);
  EXPECT_EQ(S.Regs[5], 4u); // link = return address

  MachineState T = makeMachine({
      Instruction::loadConstant(1, false, 0x40),
      Instruction::jump(Func::Snd, 5, Operand::reg(1)), // absolute
  });
  stepFault(T);
  stepFault(T);
  EXPECT_EQ(T.PC, 0x40u);
  EXPECT_EQ(T.Regs[5], 8u);
}

TEST(Step, JumpAddLinksAfterReadingItsOperand) {
  expectLinkWrittenAfterTarget(Func::Add, 8 + 0x40); // not 8 + 12
}

TEST(Step, JumpSndLinksAfterReadingItsOperand) {
  expectLinkWrittenAfterTarget(Func::Snd, 0x40); // not 12
}

TEST(Step, ConditionalBranches) {
  // JumpIfZero taken: 0 == 0.
  MachineState S = makeMachine({
      Instruction::jumpIfZero(Func::Snd, Operand::imm(0), Operand::imm(0),
                              3),
  });
  stepFault(S);
  EXPECT_EQ(S.PC, 12u);

  // Not taken.
  MachineState T = makeMachine({
      Instruction::jumpIfZero(Func::Snd, Operand::imm(0), Operand::imm(1),
                              3),
  });
  stepFault(T);
  EXPECT_EQ(T.PC, 4u);

  // Backward branch.
  MachineState U = makeMachine({
      Instruction::normal(Func::Add, 0, Operand::imm(0), Operand::imm(0)),
      Instruction::jumpIfNotZero(Func::Snd, Operand::imm(0),
                                 Operand::imm(1), -1),
  });
  stepFault(U);
  stepFault(U);
  EXPECT_EQ(U.PC, 0u);
}

TEST(Step, BranchesUpdateFlagsLikeTheAlu) {
  // JumpIfZero with Sub updates carry/overflow (applyAlu semantics).
  MachineState S = makeMachine({
      Instruction::jumpIfZero(Func::Sub, Operand::imm(3), Operand::imm(3),
                              2),
  });
  stepFault(S);
  EXPECT_TRUE(S.CarryFlag); // 3 - 3: no borrow
  EXPECT_EQ(S.PC, 8u);
}

TEST(Step, InterruptNotifiesEnvironment) {
  struct Env : IsaEnv {
    unsigned Interrupts = 0;
    void onInterrupt(MachineState &) override { ++Interrupts; }
  } E;
  MachineState S = makeMachine({Instruction::interrupt()});
  ASSERT_TRUE(step(S, E).ok());
  EXPECT_EQ(E.Interrupts, 1u);
  EXPECT_EQ(S.PC, 4u);
}

TEST(Step, OutSetsDataOutAndNotifiesEnvironment) {
  struct Env : IsaEnv {
    std::vector<Word> Outputs;
    void onOutput(MachineState &, Word V) override { Outputs.push_back(V); }
  } E;
  MachineState S = makeMachine({
      Instruction::loadConstant(1, false, 77),
      Instruction::out(Operand::reg(1)),
  });
  ASSERT_TRUE(step(S, E).ok());
  ASSERT_TRUE(step(S, E).ok());
  EXPECT_EQ(S.DataOut, 77u);
  EXPECT_EQ(E.Outputs, std::vector<Word>{77u});
}

TEST(Step, InReadsEnvironment) {
  class Env : public IsaEnv {
    Word inputWord(MachineState &) override { return 0xbeef; }
  } E;
  MachineState S = makeMachine({Instruction::in(9)});
  step(S, E);
  EXPECT_EQ(S.Regs[9], 0xbeefu);
}

TEST(Run, HaltsAtSelfJump) {
  MachineState S = makeMachine({
      Instruction::loadConstant(1, false, 1),
      Instruction::halt(),
  });
  RunResult R = run(S, nullEnv(), 1000);
  EXPECT_TRUE(R.Halted);
  EXPECT_EQ(R.Steps, 1u);
  EXPECT_TRUE(isHalted(S));
}

TEST(Run, StepBudgetRespected) {
  // An infinite loop that is not a self-jump (two-instruction cycle).
  MachineState S = makeMachine({
      Instruction::jump(Func::Add, 5, Operand::imm(4)),
      Instruction::jump(Func::Add, 5, Operand::imm(-4)),
  });
  RunResult R = run(S, nullEnv(), 100);
  EXPECT_FALSE(R.Halted);
  EXPECT_EQ(R.Steps, 100u);
}

TEST(Run, ReportsFault) {
  MachineState S(64);
  S.writeWord(0, 0xf0000000u);
  RunResult R = run(S, nullEnv(), 10);
  EXPECT_EQ(R.Fault, StepFault::IllegalInstruction);
}

TEST(MachineStateTest, IsaVisibleEquality) {
  MachineState A(64), B(64);
  EXPECT_TRUE(A.isaVisibleEquals(B));
  B.Regs[5] = 1;
  EXPECT_FALSE(A.isaVisibleEquals(B));
  B.Regs[5] = 0;
  B.Memory[7] = 1;
  EXPECT_FALSE(A.isaVisibleEquals(B));
}
