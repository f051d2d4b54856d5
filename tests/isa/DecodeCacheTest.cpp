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

#include "cml/Compiler.h"
#include "cpu/Check.h"
#include "isa/ExecBackend.h"
#include "isa/Interp.h"
#include "stack/Apps.h"
#include "sys/Image.h"

#include "support/Rng.h"

#include <gtest/gtest.h>

#include <iterator>

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
  EXPECT_EQ(E.H, handlerIndex(addImm(1, 0, 7)));
  EXPECT_EQ(E.I.Op, Opcode::Normal);
  EXPECT_FALSE(E.Illegal);
  EXPECT_FALSE(E.selfJump());
  EXPECT_EQ(C.stats().Misses, 1u);
  EXPECT_EQ(C.stats().Hits, 0u);

  C.lookup(S, 0);
  EXPECT_EQ(C.stats().Misses, 1u);
  EXPECT_EQ(C.stats().Hits, 1u);

  // The halt self-loop decodes to the slow handler, as a self-jump.
  EXPECT_EQ(C.lookup(S, 4).H, handler::Slow);
  EXPECT_TRUE(C.lookup(S, 4).selfJump());
}

TEST(DecodeCache, IllegalWordsAreCachedAsIllegal) {
  MachineState S(4096);
  S.writeWord(0, 0xffffffffu);
  ASSERT_FALSE(decode(0xffffffffu));

  DecodeCache C;
  EXPECT_TRUE(C.lookup(S, 0).Illegal);
  EXPECT_EQ(C.lookup(S, 0).H, handler::Slow);
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
  // Lock-step: the cached run loop, one instruction per run over one
  // cache, against the reference fetch-decode-execute step.
  MachineState Cached = makeMachine(selfModifyingLoop());
  MachineState Ref = Cached;
  DecodeCache C;

  for (int Step = 0; Step != 64; ++Step) {
    if (isHalted(Ref))
      break;
    RunResult R = run(Cached, nullEnv(), C, 1);
    ASSERT_EQ(R.Steps, 1u) << "step " << Step;
    ASSERT_EQ(R.Fault, StepFault::None) << "step " << Step;
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

namespace {

/// Decode-cache statistics after an Isa-level run of \p Source on
/// \p Stdin: the interpreter backend in bursts that stop at the syscall
/// entry, which one reference step takes (stack::Executor's IsaSession).
DecodeCache::Stats isaRunStats(const char *Source, const std::string &Stdin,
                               std::string &Stdout) {
  Result<cml::Compiled> C = cml::compileProgram(Source);
  if (!C) {
    ADD_FAILURE() << C.error().str();
    return {};
  }
  sys::ImageSpec Spec;
  Spec.Program = C->Program;
  Spec.CommandLine = {"prog"};
  Spec.StdinData = Stdin;
  Result<sys::BootResult> B = sys::boot(Spec);
  if (!B) {
    ADD_FAILURE() << B.error().str();
    return {};
  }
  sys::SysEnv Env(B->Layout);
  ExecBackend Backend;
  for (;;) {
    RunResult R = Backend.run(B->State, Env, 100'000'000,
                              B->Layout.SyscallCodeBase);
    EXPECT_EQ(R.Fault, StepFault::None);
    if (!R.AtStopPc)
      break;
    EXPECT_TRUE(step(B->State, Env).ok());
  }
  Stdout = Env.collectedStdout();
  return Backend.decodeStats();
}

} // namespace

TEST(CachedInterp, DecodeStatsOfAppRunsArePinned) {
  // The run loop counts hits once per run instead of per lookup; the
  // totals are those of a loop that looks its slot up at every step.
  std::string Out;
  DecodeCache::Stats S = isaRunStats(stack::helloSource(), "", Out);
  EXPECT_EQ(Out, "Hello, world!\n");
  EXPECT_EQ(S.Hits, 226u);
  EXPECT_EQ(S.Misses, 1504u);
  EXPECT_EQ(S.Invalidations, 0u);

  const std::string Text = "the quick brown fox\njumps over\n\nthe lazy dog\n";
  S = isaRunStats(stack::wcSource(), Text, Out);
  EXPECT_EQ(Out, stack::wcSpec(Text));
  EXPECT_EQ(S.Hits, 25763u);
  EXPECT_EQ(S.Misses, 3505u);
  EXPECT_EQ(S.Invalidations, 0u);

  MachineState M = makeMachine(selfModifyingLoop());
  DecodeCache C;
  ASSERT_TRUE(run(M, nullEnv(), C, 1000).Halted);
  EXPECT_EQ(C.stats().Hits, 6u);
  EXPECT_EQ(C.stats().Misses, 11u);
  EXPECT_EQ(C.stats().Invalidations, 3u);
}

TEST(CachedInterp, StoreRewritingTheNextInstructionTakesEffect) {
  // The run loop holds the slots of the page it executes from; a store
  // that rewrites the very next slot of that page must be seen.
  Word Patched = encode(addImm(2, 0, 7));
  std::vector<Instruction> Program = {
      Instruction::loadConstant(3, false, Patched & 0x1fffff),  //  0
      Instruction::loadUpperConstant(3, Patched >> 21),         //  4
      Instruction::storeMem(Operand::reg(3), Operand::imm(12)), //  8
      addImm(2, 0, 1),                                          // 12
      Instruction::halt(),                                      // 16
  };
  MachineState S = makeMachine(Program);
  MachineState Ref = S;
  DecodeCache C;
  // Decode the old instruction at 12 first, so its slot is filled.
  S.PC = 12;
  ASSERT_EQ(run(S, nullEnv(), C, 1).Steps, 1u);
  ASSERT_EQ(S.Regs[2], 1u);
  S.PC = 0;
  S.Regs[2] = 0;
  RunResult R = run(S, nullEnv(), C, 100);
  EXPECT_TRUE(R.Halted);
  EXPECT_EQ(R.Steps, 4u);
  EXPECT_EQ(S.Regs[2], 7u);
  EXPECT_EQ(C.stats().Invalidations, 1u);

  RunResult RefR = run(Ref, nullEnv(), 100);
  EXPECT_EQ(R.Steps, RefR.Steps);
  EXPECT_TRUE(S.isaVisibleEquals(Ref));
}

namespace {

/// Every Silver instruction form the handler byte distinguishes (opcode,
/// ALU function or shift kind, immediate or register A and B), with
/// random fields, plus the forms that share the slow handler.
std::vector<Instruction> everyForm(Rng &R) {
  auto Op = [&](bool Imm) {
    return Imm ? Operand::imm(R.range(-32, 31))
               : Operand::reg(R.below(NumRegs));
  };
  std::vector<Instruction> Out;
  for (unsigned AImm = 0; AImm != 2; ++AImm)
    for (unsigned BImm = 0; BImm != 2; ++BImm) {
      unsigned W = R.below(NumRegs);
      int32_t Off = R.range(-512, 511);
      for (unsigned F = 0; F != NumFuncs; ++F) {
        Func Fn = static_cast<Func>(F);
        Out.push_back(Instruction::normal(Fn, W, Op(AImm), Op(BImm)));
        Out.push_back(Instruction::jump(Fn, W, Op(AImm)));
        Out.push_back(Instruction::jumpIfZero(Fn, Op(AImm), Op(BImm), Off));
        Out.push_back(Instruction::jumpIfNotZero(Fn, Op(AImm), Op(BImm), Off));
      }
      for (unsigned K = 0; K != NumShiftKinds; ++K)
        Out.push_back(Instruction::shift(static_cast<ShiftKind>(K), W,
                                         Op(AImm), Op(BImm)));
      Out.push_back(Instruction::loadMem(W, Op(AImm)));
      Out.push_back(Instruction::loadMemByte(W, Op(AImm)));
      Out.push_back(Instruction::storeMem(Op(AImm), Op(BImm)));
      Out.push_back(Instruction::storeMemByte(Op(AImm), Op(BImm)));
      Out.push_back(Instruction::loadConstant(W, R.chance(1, 2), R.next32()));
      Out.push_back(Instruction::loadUpperConstant(W, R.next32()));
      Out.push_back(Instruction::interrupt());
      Out.push_back(Instruction::in(W));
      Out.push_back(Instruction::out(Op(AImm)));
    }
  Out.push_back(Instruction::halt(R.below(NumRegs)));
  return Out;
}

/// Counts what the instruction asks of the environment.
struct RecordingEnv : IsaEnv {
  unsigned Interrupts = 0;
  std::vector<Word> Outputs;
  void onInterrupt(MachineState &) override { ++Interrupts; }
  Word inputWord(MachineState &) override { return 0x5eed1234; }
  void onOutput(MachineState &, Word V) override { Outputs.push_back(V); }
};

/// A random state of \p MemBytes bytes with \p I at a random PC.  Most
/// registers hold addresses at the edges of memory (0, the last byte,
/// the last word, just past the end, misaligned) so loads and stores
/// meet every fault.
MachineState randomState(Rng &R, const Instruction &I, Word MemBytes) {
  MachineState S(MemBytes);
  const Word Edges[] = {0,           1,           2,           MemBytes - 1,
                        MemBytes - 4, MemBytes - 2, MemBytes,    0xfffffffcu};
  for (Word &Reg : S.Regs)
    Reg = R.chance(2, 3) ? Edges[R.below(std::size(Edges))] : R.next32();
  S.CarryFlag = R.chance(1, 2);
  S.OverflowFlag = R.chance(1, 2);
  for (Word A = 0; A < MemBytes; A += 4)
    if (R.chance(1, 8))
      S.writeWord(A, R.next32());
  S.PC = R.below(MemBytes / 4) * 4;
  S.writeWord(S.PC, encode(I));
  return S;
}

void expectSameStep(Rng &R, const Instruction &I, Word MemBytes) {
  MachineState Init = randomState(R, I, MemBytes);
  SCOPED_TRACE(toString(I) + " at pc " + std::to_string(Init.PC));

  MachineState Ref = Init;
  RecordingEnv RefEnv;
  StepResult RefS = step(Ref, RefEnv);

  // A one-step cached run.
  MachineState Run = Init;
  RecordingEnv RunEnv;
  DecodeCache C;
  RunResult RunR = run(Run, RunEnv, C, 1);

  if (I.isSelfJump()) {
    // The run stops before the halt; the step executes it.
    EXPECT_TRUE(RunR.Halted);
    EXPECT_EQ(RunR.Steps, 0u);
    EXPECT_TRUE(Run.isaVisibleEquals(Init));
    return;
  }
  EXPECT_EQ(RunR.Fault, RefS.Fault);
  EXPECT_EQ(RunR.Steps, RefS.ok() ? 1u : 0u);
  EXPECT_FALSE(RunR.Halted);
  EXPECT_TRUE(Run.isaVisibleEquals(Ref));
  EXPECT_EQ(Run.CarryFlag, Ref.CarryFlag);
  EXPECT_EQ(Run.OverflowFlag, Ref.OverflowFlag);
  EXPECT_EQ(Run.DataOut, Ref.DataOut);
  EXPECT_EQ(RunEnv.Interrupts, RefEnv.Interrupts);
  EXPECT_EQ(RunEnv.Outputs, RefEnv.Outputs);
  EXPECT_EQ(C.stats().Misses, 1u);
  EXPECT_EQ(C.stats().Hits, 0u);
}

void expectEveryFormAgrees(uint64_t Seed) {
  Rng R(Seed);
  std::vector<bool> Covered(256, false);
  for (int Round = 0; Round != 12; ++Round)
    for (const Instruction &I : everyForm(R)) {
      Covered[handlerIndex(I)] = true;
      // A one-page memory whose size is not a multiple of the page, and
      // a two-page one.
      expectSameStep(R, I, 1000);
      expectSameStep(R, I, 2 * 4096);
    }
  for (unsigned H = 1; H != 256; ++H)
    EXPECT_TRUE(Covered[H]) << "handler " << H << " never ran";
}

} // namespace

TEST(CachedInterp, EveryHandlerFormMatchesTheReferenceStep) {
  expectEveryFormAgrees(0x51u);
}

#if SILVER_FAULT_INJECTION
TEST(CachedInterp, EveryHandlerFormMatchesUnderInjectedCarryFault) {
  // The injected fault is read when the instruction runs, not when it is
  // decoded: both paths see it.
  struct FaultGuard {
    FaultGuard() { fault::InvertAddCarry = true; }
    ~FaultGuard() { fault::InvertAddCarry = false; }
  } Guard;
  expectEveryFormAgrees(0x52u);
}
#endif

TEST(CachedInterp, PcPastTheEndOfAPartialPageFaults) {
  // Memory ends inside the page the loop holds: a jump to the last,
  // incomplete word must fault as the reference does, not run its slot.
  MachineState S = makeMachine(
      {Instruction::jump(Func::Snd, 5, Operand::reg(1))}, 1002);
  S.Regs[1] = 1000;
  MachineState Ref = S;
  DecodeCache C;
  RunResult R = run(S, nullEnv(), C, 10);
  RunResult RefR = run(Ref, nullEnv(), 10);
  EXPECT_EQ(R.Fault, StepFault::PcOutOfRange);
  EXPECT_EQ(R.Fault, RefR.Fault);
  EXPECT_EQ(R.Steps, 1u);
  EXPECT_EQ(R.Steps, RefR.Steps);
  EXPECT_TRUE(S.isaVisibleEquals(Ref));
}
