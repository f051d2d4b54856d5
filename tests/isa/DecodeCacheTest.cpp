//===- tests/isa/DecodeCacheTest.cpp - Predecoded-interpreter tests ------------===//
//
// The decode cache's correctness contract (isa/DecodeCache.h): a cached
// entry is valid only while the instruction word at its address is
// unchanged, and every memory-writing path invalidates.  These tests
// cover the cache mechanics directly, then hold the cached interpreter
// in agreement with the reference fetch-decode-execute loop, and the
// reference with the hardware levels, on self-modifying code.
//
//===----------------------------------------------------------------------===//

#include "isa/DecodeCache.h"

#include "cpu/Check.h"
#include "isa/Interp.h"

#include <gtest/gtest.h>

using namespace silver;
using namespace silver::isa;

namespace {

MachineState makeMachine(const std::vector<Instruction> &Program,
                         size_t MemBytes = 4096) {
  MachineState S(MemBytes);
  for (size_t I = 0; I != Program.size(); ++I)
    S.writeWord(static_cast<Word>(4 * I), encode(Program[I]));
  return S;
}

Instruction addImm(unsigned W, unsigned A, int32_t Imm) {
  return Instruction::normal(Func::Add, W, Operand::reg(A),
                             Operand::imm(Imm));
}

/// A three-iteration loop whose body patches its own add from "+1" to
/// "+2": r2 = 1 + 2 + 2 = 5 when invalidation works, 3 when a stale
/// cached decode survives the store.
std::vector<Instruction> selfModifyingLoop() {
  Word Patched = encode(addImm(2, 2, 2));
  return {
      Instruction::loadConstant(1, false, 3),               //  0: counter
      Instruction::loadConstant(2, false, 0),               //  4: accum
      Instruction::loadConstant(3, false, Patched & 0x1fffff), //  8
      Instruction::loadUpperConstant(3, Patched >> 21),     // 12
      addImm(2, 2, 1),                                      // 16: target
      Instruction::storeMem(Operand::reg(3), Operand::imm(16)), // 20
      Instruction::normal(Func::Dec, 1, Operand::reg(1), Operand::imm(0)),
      Instruction::jumpIfNotZero(Func::Snd, Operand::imm(0),
                                 Operand::reg(1), (16 - 28) / 4), // 28
      Instruction::halt(),                                  // 32
  };
}

} // namespace

TEST(DecodeCache, LookupFillsOnceAndCountsStats) {
  MachineState S = makeMachine({addImm(1, 0, 7), Instruction::halt()});
  DecodeCache C;

  const DecodedInsn &E = C.lookup(S, 0);
  EXPECT_EQ(E.St, DecodedInsn::Decoded);
  EXPECT_EQ(E.I.Op, Opcode::Normal);
  EXPECT_FALSE(E.SelfJump);
  EXPECT_EQ(C.stats().Misses, 1u);
  EXPECT_EQ(C.stats().Hits, 0u);

  C.lookup(S, 0);
  EXPECT_EQ(C.stats().Misses, 1u);
  EXPECT_EQ(C.stats().Hits, 1u);

  // The halt self-loop decodes with the cached SelfJump flag set.
  EXPECT_TRUE(C.lookup(S, 4).SelfJump);
}

TEST(DecodeCache, IllegalWordsAreCachedAsIllegal) {
  MachineState S(4096);
  S.writeWord(0, 0xffffffffu);
  ASSERT_FALSE(decode(0xffffffffu));

  DecodeCache C;
  EXPECT_EQ(C.lookup(S, 0).St, DecodedInsn::Illegal);
  EXPECT_EQ(C.lookup(S, 0).St, DecodedInsn::Illegal);
  EXPECT_EQ(C.stats().Misses, 1u);
  EXPECT_EQ(C.stats().Hits, 1u);
}

TEST(DecodeCache, InvalidateDropsOnlyOverlappingEntries) {
  MachineState S = makeMachine(
      {addImm(1, 0, 1), addImm(2, 0, 2), addImm(3, 0, 3)});
  DecodeCache C;
  C.lookup(S, 0);
  C.lookup(S, 4);
  C.lookup(S, 8);

  // A one-byte write inside the middle word drops that entry alone.
  C.invalidate(5, 1);
  EXPECT_EQ(C.stats().Invalidations, 1u);

  S.writeWord(4, encode(addImm(2, 0, 20)));
  EXPECT_EQ(C.lookup(S, 0).I.B.immValue(), 1);
  EXPECT_EQ(C.lookup(S, 4).I.B.immValue(), 20); // re-decoded
  EXPECT_EQ(C.lookup(S, 8).I.B.immValue(), 3);
  EXPECT_EQ(C.stats().Misses, 4u);

  // A spanning range drops everything it overlaps; empty slots do not
  // count as invalidations.
  C.invalidate(0, 12);
  EXPECT_EQ(C.stats().Invalidations, 4u);
  C.invalidate(2048, 64); // never-decoded slots: no counts
  EXPECT_EQ(C.stats().Invalidations, 4u);
}

TEST(DecodeCache, InvalidateAllForgetsEverything) {
  MachineState S = makeMachine({addImm(1, 0, 1), addImm(2, 0, 2)});
  DecodeCache C;
  C.lookup(S, 0);
  C.lookup(S, 4);

  S.writeWord(0, encode(addImm(1, 0, 10)));
  S.writeWord(4, encode(addImm(2, 0, 20)));
  C.invalidateAll();
  EXPECT_EQ(C.stats().Invalidations, 2u);
  EXPECT_EQ(C.lookup(S, 0).I.B.immValue(), 10);
  EXPECT_EQ(C.lookup(S, 4).I.B.immValue(), 20);
}

TEST(CachedInterp, SelfModifyingLoopMatchesReference) {
  // Lock-step: the cached interpreter against the reference
  // fetch-decode-execute loop, one instruction at a time.
  MachineState Cached = makeMachine(selfModifyingLoop());
  MachineState Ref = Cached;
  DecodeCache C;

  for (int Step = 0; Step != 64; ++Step) {
    if (isHalted(Ref))
      break;
    ASSERT_TRUE(step(Cached, nullEnv(), C).ok()) << "step " << Step;
    ASSERT_TRUE(step(Ref, nullEnv()).ok()) << "step " << Step;
    ASSERT_EQ(Cached.PC, Ref.PC) << "step " << Step;
    ASSERT_EQ(Cached.Regs, Ref.Regs) << "step " << Step;
    ASSERT_EQ(Cached.Memory, Ref.Memory) << "step " << Step;
  }
  EXPECT_EQ(Cached.Regs[2], 5u); // 1 + 2 + 2: the patch took effect
  EXPECT_EQ(Cached.Regs[1], 0u);
  EXPECT_GT(C.stats().Invalidations, 0u);
}

TEST(CachedInterp, CachedRunExecutesPatchedCode) {
  MachineState S = makeMachine(selfModifyingLoop());
  DecodeCache C;
  RunResult R = run(S, nullEnv(), C, 1000);
  EXPECT_TRUE(R.Halted);
  EXPECT_EQ(R.Fault, StepFault::None);
  EXPECT_EQ(S.Regs[2], 5u);

  // The reference loop agrees on steps and final state.
  MachineState Ref = makeMachine(selfModifyingLoop());
  RunResult RefR = run(Ref, nullEnv(), 1000);
  EXPECT_EQ(R.Steps, RefR.Steps);
  EXPECT_EQ(S.Memory, Ref.Memory);
  EXPECT_EQ(S.Regs, Ref.Regs);
}

TEST(CachedInterp, RunUntilPcStopsBeforeExecutingTheStopInstruction) {
  MachineState S = makeMachine(
      {addImm(1, 0, 1), addImm(2, 0, 2), addImm(3, 0, 3),
       Instruction::halt()});
  DecodeCache C;

  RunResult R = run(S, nullEnv(), C, 1000, /*StopPc=*/8);
  EXPECT_TRUE(R.AtStopPc);
  EXPECT_FALSE(R.Halted);
  EXPECT_EQ(R.Steps, 2u);
  EXPECT_EQ(S.PC, 8u);
  EXPECT_EQ(S.Regs[3], 0u); // the stop instruction itself did not run

  // Resuming with an unreachable stop pc runs to the halt self-loop.
  R = run(S, nullEnv(), C, 1000, /*StopPc=*/0x400);
  EXPECT_TRUE(R.Halted);
  EXPECT_FALSE(R.AtStopPc);
  EXPECT_EQ(R.Steps, 1u);
  EXPECT_EQ(S.Regs[3], 3u);

  // An exhausted budget reports neither flag and no fault.
  MachineState S2 = makeMachine({addImm(1, 0, 1), Instruction::halt()});
  R = run(S2, nullEnv(), C, 0, /*StopPc=*/0x400);
  EXPECT_FALSE(R.AtStopPc);
  EXPECT_FALSE(R.Halted);
  EXPECT_EQ(R.Steps, 0u);
  EXPECT_EQ(R.Fault, StepFault::None);
}

TEST(SelfModifying, IsaAgreesWithRtlCore) {
  // The end-to-end self-modifying check: checkIsaRtl's reference ISA
  // side against the circuit-level core, which fetches every instruction
  // from memory afresh.  A level executing the stale word would diverge
  // at the first post-patch retire.
  MachineState Init = makeMachine(selfModifyingLoop());
  cpu::RunOptions Options;
  Options.MaxCycles = 100'000;
  Result<uint64_t> N = cpu::checkIsaRtl(Init, 100, Options, nullptr);
  ASSERT_TRUE(N) << N.error().str();
  EXPECT_EQ(*N, 16u); // 4 setup + 3 iterations x 4-instruction body
}

TEST(SelfModifying, IsaAgreesWithVerilogCore) {
  MachineState Init = makeMachine(selfModifyingLoop());
  cpu::RunOptions Options;
  Options.Level = cpu::SimLevel::Verilog;
  Options.MaxCycles = 100'000;
  Result<uint64_t> N = cpu::checkIsaRtl(Init, 100, Options, nullptr);
  ASSERT_TRUE(N) << N.error().str();
}
