//===- tests/isa/JitBackendTest.cpp - Baseline JIT backend tests ----------===//
//
// The JIT backend's contract (isa/jit/Jit.h) is the reference semantics
// bit for bit: identical step counts, faults, halts, registers, flags
// and memory after any budgeted run.  These tests hold the JIT against
// the interpreter backend across the ALU/shift/memory matrix, the
// DecodeCacheTest self-modifying corpus (store invalidation), external
// (oracle-style) invalidation, exact budget accounting, and the
// stop-PC contract.  On hosts without native support the
// backend degrades to interpretation and every test still passes.
//
//===----------------------------------------------------------------------===//

#include "isa/ExecBackend.h"

#include "isa/Encoding.h"
#include "isa/Interp.h"

#include <gtest/gtest.h>

using namespace silver;
using namespace silver::isa;

namespace {

MachineState makeMachine(const std::vector<Instruction> &Program,
                         size_t MemBytes = 64 * 1024) {
  MachineState S(MemBytes);
  for (size_t I = 0; I != Program.size(); ++I)
    S.writeWord(static_cast<Word>(4 * I), encode(Program[I]));
  return S;
}

Instruction addImm(unsigned W, unsigned A, int32_t Imm) {
  return Instruction::normal(Func::Add, W, Operand::reg(A),
                             Operand::imm(Imm));
}

/// Materialises an arbitrary 32-bit constant into register \p W.
/// Always two instructions, so program layouts are value-independent.
void emitConst(std::vector<Instruction> &P, unsigned W, Word V) {
  P.push_back(Instruction::loadConstant(W, false, V & 0x1fffff));
  P.push_back(Instruction::loadUpperConstant(W, V >> 21));
}

/// The DecodeCacheTest loop whose body patches its own add from "+1" to
/// "+2" (r2 == 5 iff invalidation works), here exercised at JIT level.
std::vector<Instruction> selfModifyingLoop() {
  Word Patched = encode(addImm(2, 2, 2));
  return {
      Instruction::loadConstant(1, false, 3),
      Instruction::loadConstant(2, false, 0),
      Instruction::loadConstant(3, false, Patched & 0x1fffff),
      Instruction::loadUpperConstant(3, Patched >> 21),
      addImm(2, 2, 1), // 16: patched in place by the store below
      Instruction::storeMem(Operand::reg(3), Operand::imm(16)),
      Instruction::normal(Func::Dec, 1, Operand::reg(1), Operand::imm(0)),
      Instruction::jumpIfNotZero(Func::Snd, Operand::imm(0),
                                 Operand::reg(1), (16 - 28) / 4),
      Instruction::halt(),
  };
}

ExecBackend hotJit() {
  jit::JitOptions O;
  O.HotThreshold = 1; // compile on first visit: every test runs native
  return ExecBackend(O);
}

/// Runs \p Prog under both backends with the same budget and requires
/// ISA-visible identity: steps, outcome, PC, registers, flags, memory,
/// and the IO artifacts.
void expectSameRun(const std::vector<Instruction> &Prog,
                   uint64_t MaxSteps = 100'000,
                   size_t MemBytes = 64 * 1024) {
  MachineState J = makeMachine(Prog, MemBytes);
  MachineState R = J;
  ExecBackend JB = hotJit();
  ExecBackend IB;

  RunResult Jr = JB.run(J, nullEnv(), MaxSteps);
  RunResult Rr = IB.run(R, nullEnv(), MaxSteps);
  EXPECT_EQ(Jr.Steps, Rr.Steps);
  EXPECT_EQ(Jr.Halted, Rr.Halted);
  EXPECT_EQ(Jr.Fault, Rr.Fault);
  EXPECT_EQ(J.PC, R.PC);
  EXPECT_EQ(J.Regs, R.Regs);
  EXPECT_EQ(J.CarryFlag, R.CarryFlag);
  EXPECT_EQ(J.OverflowFlag, R.OverflowFlag);
  EXPECT_EQ(J.Memory, R.Memory);
  EXPECT_EQ(J.DataOut, R.DataOut);
}

} // namespace

TEST(JitBackend, HotRunCountsRefusalsAndExitsByKind) {
  if (!jit::hostSupported())
    GTEST_SKIP() << "no native JIT on this host";
  auto Refused = [](const jit::JitStats &St, jit::RefuseReason R) {
    return St.Refused[static_cast<size_t>(R)];
  };
  auto Exits = [](const jit::JitStats &St, jit::ExitKind K) {
    return St.Exits[static_cast<size_t>(K)];
  };
  // Runs \p Prog hot to its halt and returns what the JIT did.
  auto statsOf = [](const std::vector<Instruction> &Prog) {
    MachineState S = makeMachine(Prog);
    ExecBackend JB = hotJit();
    EXPECT_TRUE(JB.run(S, nullEnv(), 1000).Halted);
    return *JB.jitStats();
  };

  // A block ended by a jump to a register target compiles and leaves
  // through a computed exit.
  jit::JitStats St = statsOf({Instruction::loadConstant(1, false, 12),
                              addImm(2, 0, 2),
                              Instruction::jump(Func::Snd, 63,
                                                Operand::reg(1)),
                              Instruction::halt()});
  EXPECT_EQ(St.BlocksCompiled, 1u);
  EXPECT_EQ(Exits(St, jit::ExitKind::Computed), 1u);
  EXPECT_EQ(Exits(St, jit::ExitKind::Chain), 0u);

  // The block stops just before an I/O instruction and exits to the
  // run loop; the block entered at the I/O instruction is empty.
  St = statsOf({addImm(1, 0, 1), Instruction::out(Operand::reg(1)),
                Instruction::halt()});
  EXPECT_EQ(St.BlocksCompiled, 1u);
  EXPECT_EQ(Refused(St, jit::RefuseReason::EmptyBlock), 1u);
  EXPECT_EQ(Exits(St, jit::ExitKind::Chain), 1u);

  // A straight-line run with no terminator within MaxBlockInstrs: the
  // entries at instructions 0..8 see MaxBlockInstrs of it and are
  // refused, the one at instruction 9 reaches the halt and compiles.
  std::vector<Instruction> Long(jit::MaxBlockInstrs + 8, addImm(1, 1, 1));
  Long.push_back(Instruction::halt());
  St = statsOf(Long);
  EXPECT_EQ(Refused(St, jit::RefuseReason::BlockTooLong), 9u);
  EXPECT_EQ(St.BlocksCompiled, 1u);
  for (size_t R = 0; R != jit::NumRefuseReasons; ++R)
    EXPECT_TRUE(St.Refused[R] == 0 ||
                R == static_cast<size_t>(jit::RefuseReason::BlockTooLong))
        << jit::refuseReasonId(jit::RefuseReason(R));

  EXPECT_STREQ(jit::refuseReasonId(jit::RefuseReason::BlockTooLong),
               "block-too-long");
  EXPECT_STREQ(jit::exitKindId(jit::ExitKind::Computed), "computed");
}

TEST(JitBackend, DeoptAfterACommittedPrefixIsNoVisit) {
  if (!jit::hostSupported())
    GTEST_SKIP() << "no native JIT on this host";
  // A hot loop whose second instruction stores into its own code page:
  // each native pass commits the add, then deopts at the store.  The
  // loop executes that store as the rest of the block entry, not as a
  // visit of pc 12.  Counted as a visit, it would make pc 12 hot and
  // compile a block there that deopts before committing anything.
  std::vector<Instruction> P = {
      Instruction::loadConstant(1, false, 10),  // 0: iterations
      Instruction::loadConstant(3, false, 1024), // 4: a data word, page 0
      addImm(2, 2, 1),                           // 8: loop
      Instruction::storeMem(Operand::reg(2), Operand::reg(3)), // 12
      Instruction::normal(Func::Dec, 1, Operand::reg(1), Operand::imm(0)),
      Instruction::jumpIfNotZero(Func::Snd, Operand::imm(0),
                                 Operand::reg(1), -3), // 20 -> 8
      Instruction::halt(),                             // 24
  };
  MachineState J = makeMachine(P);
  MachineState R = J;
  ExecBackend JB = hotJit();
  RunResult Jr = JB.run(J, nullEnv(), 1000);
  RunResult Rr = ExecBackend().run(R, nullEnv(), 1000);
  EXPECT_TRUE(Jr.Halted);
  EXPECT_EQ(Jr.Steps, Rr.Steps);
  EXPECT_EQ(J.Regs, R.Regs);
  EXPECT_EQ(J.Memory, R.Memory);
  EXPECT_EQ(J.readWord(1024), 10u);

  const jit::JitStats &St = *JB.jitStats();
  // Blocks at 0 (to the first store), 16 (the loop's tail, chained to
  // 8) and 8; one deopt per iteration, and chain exits to 8 before it
  // was compiled and to the halt.  Only the ten stores are interpreted.
  EXPECT_EQ(St.BlocksCompiled, 3u);
  EXPECT_EQ(St.Refused, decltype(St.Refused){});
  EXPECT_EQ(St.Exits, (decltype(St.Exits){2, 10, 0, 0}));
  EXPECT_EQ(St.BlockInvalidations, 0u);
  EXPECT_EQ(St.Interpreted, 10u);
}

TEST(JitBackend, AluMatrixMatchesInterpreter) {
  // Every ALU function over edge-case operands, looped so the block is
  // hot and runs natively; results accumulate into distinct registers.
  const Word Values[] = {0u,          1u,          0x7fffffffu,
                         0x80000000u, 0xffffffffu, 0x12345678u};
  const Func Funcs[] = {Func::Add,  Func::AddCarry, Func::Sub,
                        Func::Carry, Func::Overflow, Func::Inc,
                        Func::Dec,  Func::Mul,      Func::MulHigh,
                        Func::And,  Func::Or,       Func::Xor,
                        Func::Equal, Func::Less,    Func::Lower,
                        Func::Snd};
  for (Word A : Values)
    for (Word B : Values) {
      std::vector<Instruction> P;
      emitConst(P, 1, A);
      emitConst(P, 2, B);
      unsigned W = 8;
      for (Func F : Funcs)
        P.push_back(Instruction::normal(F, W++, Operand::reg(1),
                                        Operand::reg(2)));
      P.push_back(Instruction::halt());
      expectSameRun(P);
    }
}

TEST(JitBackend, ShiftMatrixMatchesInterpreter) {
  const Word Values[] = {0u, 1u, 0x80000001u, 0xdeadbeefu};
  const Word Amounts[] = {0u, 1u, 31u, 32u, 33u, 0xffffffffu};
  const ShiftKind Kinds[] = {ShiftKind::LogicalLeft, ShiftKind::LogicalRight,
                             ShiftKind::ArithRight, ShiftKind::RotateRight};
  for (Word V : Values)
    for (Word Amt : Amounts) {
      std::vector<Instruction> P;
      emitConst(P, 1, V);
      emitConst(P, 2, Amt);
      unsigned W = 8;
      for (ShiftKind K : Kinds)
        P.push_back(Instruction::shift(K, W++, Operand::reg(1),
                                       Operand::reg(2)));
      P.push_back(Instruction::halt());
      expectSameRun(P);
    }
}

TEST(JitBackend, FlagChainsMatchInterpreter) {
  // Carry/overflow producers feeding AddCarry/Carry/Overflow consumers,
  // including the Jump flag update (alu(Add, PC, imm) sets flags too).
  std::vector<Instruction> P;
  emitConst(P, 1, 0xffffffffu);
  emitConst(P, 2, 0x7fffffffu);
  P.push_back(Instruction::normal(Func::Add, 10, Operand::reg(1),
                                  Operand::imm(1))); // carry out
  P.push_back(Instruction::normal(Func::AddCarry, 11, Operand::reg(2),
                                  Operand::imm(0))); // consumes carry
  P.push_back(Instruction::normal(Func::Carry, 12, Operand::imm(0),
                                  Operand::imm(0)));
  P.push_back(Instruction::normal(Func::Overflow, 13, Operand::imm(0),
                                  Operand::imm(0)));
  P.push_back(Instruction::normal(Func::Sub, 14, Operand::reg(1),
                                  Operand::reg(2))); // no borrow
  P.push_back(Instruction::normal(Func::Carry, 15, Operand::imm(0),
                                  Operand::imm(0)));
  P.push_back(Instruction::normal(Func::Sub, 16, Operand::imm(0),
                                  Operand::imm(1))); // borrow
  P.push_back(Instruction::normal(Func::Carry, 17, Operand::imm(0),
                                  Operand::imm(0)));
  // A direct jump updates flags from alu(Add, PC, 4) at compile time.
  P.push_back(Instruction::jump(Func::Add, 20, Operand::imm(4)));
  P.push_back(Instruction::normal(Func::Carry, 18, Operand::imm(0),
                                  Operand::imm(0)));
  P.push_back(Instruction::halt());
  expectSameRun(P);
}

TEST(JitBackend, MemoryOpsAndIoMatchInterpreter) {
  std::vector<Instruction> P;
  emitConst(P, 1, 0xcafebabeu);
  emitConst(P, 2, 8192); // data page, far from code
  P.push_back(Instruction::storeMem(Operand::reg(1), Operand::reg(2)));
  P.push_back(Instruction::loadMem(3, Operand::reg(2)));
  P.push_back(addImm(2, 2, 1));
  P.push_back(Instruction::storeMemByte(Operand::reg(3), Operand::reg(2)));
  P.push_back(Instruction::loadMemByte(4, Operand::reg(2)));
  P.push_back(Instruction::out(Operand::reg(4)));
  P.push_back(Instruction::in(5));
  P.push_back(Instruction::interrupt());
  P.push_back(Instruction::halt());
  expectSameRun(P);
}

TEST(JitBackend, MemoryFaultsMatchInterpreter) {
  // Misaligned load: same fault, same step count (faulting step not
  // counted), same state.
  std::vector<Instruction> P;
  emitConst(P, 2, 8193);
  P.push_back(addImm(1, 1, 1));
  P.push_back(Instruction::loadMem(3, Operand::reg(2)));
  P.push_back(Instruction::halt());
  expectSameRun(P);

  // Out-of-range store.
  std::vector<Instruction> Q;
  emitConst(Q, 2, 0x10000000u);
  Q.push_back(Instruction::storeMem(Operand::reg(1), Operand::reg(2)));
  Q.push_back(Instruction::halt());
  expectSameRun(Q);

  // Computed jump off the end of memory: PC fault after the jump.
  std::vector<Instruction> R;
  emitConst(R, 2, 0x00ffff00u);
  R.push_back(Instruction::jump(Func::Snd, 63, Operand::reg(2)));
  expectSameRun(R, 100'000, 64 * 1024);
}

TEST(JitBackend, JumpLinkSemanticsMatchInterpreter) {
  // `jump snd r5, r5`: the target is read before the link write, so the
  // machine lands at the pre-link value of r5 and r5 then holds PC+4.
  std::vector<Instruction> P;
  P.push_back(Instruction::loadConstant(5, false, 16)); // 0: r5 = 16
  P.push_back(Instruction::jump(Func::Snd, 5, Operand::reg(5))); // 4
  P.push_back(Instruction::halt());                     // 8: skipped
  P.push_back(Instruction::halt());                     // 12: skipped
  P.push_back(Instruction::halt());                     // 16: landing pad
  expectSameRun(P);

  MachineState S = makeMachine(P);
  ASSERT_TRUE(hotJit().run(S, nullEnv(), 100).Halted);
  EXPECT_EQ(S.Regs[5], 8u); // the link value, not the target
}

TEST(JitBackend, SelfModifyingLoopMatchesInterpreter) {
  expectSameRun(selfModifyingLoop());

  // And the JIT really took the deopt/invalidate path natively.
  MachineState S = makeMachine(selfModifyingLoop());
  ExecBackend JB = hotJit();
  RunResult R = JB.run(S, nullEnv(), 100'000);
  EXPECT_TRUE(R.Halted);
  EXPECT_EQ(S.Regs[2], 5u); // stale translated code would give 3
  if (jit::hostSupported()) {
    const jit::JitStats *St = JB.jitStats();
    ASSERT_NE(St, nullptr);
    EXPECT_GT(St->BlocksCompiled, 0u);
    EXPECT_GT(St->BlockInvalidations, 0u);
    EXPECT_GT(St->Exits[static_cast<size_t>(jit::ExitKind::Deopt)], 0u);
  }
}

TEST(JitBackend, CrossPageStoreInvalidates) {
  // The storing driver runs on page 0, the patched victim block on
  // page 1 (pc 4096): the native store guard and the block invalidation
  // must both work across the 4 KiB page boundary.
  Word Patched = encode(addImm(2, 2, 2));
  std::vector<Instruction> P;
  emitConst(P, 3, Patched);                             // r3 = new word
  P.push_back(Instruction::loadConstant(1, false, 4));  // r1 = iterations
  P.push_back(Instruction::loadConstant(10, false, 28)); // r10 = return pc
  P.push_back(Instruction::loadConstant(11, false, 4096)); // victim entry
  P.push_back(Instruction::loadConstant(12, false, 4096)); // patch target
  // 24: loop — call the victim, then patch its first word.
  P.push_back(Instruction::jump(Func::Snd, 63, Operand::reg(11))); // 24
  P.push_back(Instruction::storeMem(Operand::reg(3), Operand::reg(12)));
  P.push_back(Instruction::normal(Func::Dec, 1, Operand::reg(1),
                                  Operand::imm(0)));    // 32
  P.push_back(Instruction::jumpIfNotZero(Func::Snd, Operand::imm(0),
                                         Operand::reg(1), -3)); // 36 -> 24
  P.push_back(Instruction::halt());                     // 40

  MachineState M = makeMachine(P, 64 * 1024);
  M.writeWord(4096, encode(addImm(2, 2, 1))); // victim: r2 += 1 (patched)
  M.writeWord(4100,
              encode(Instruction::jump(Func::Snd, 62, Operand::reg(10))));
  MachineState Ref = M;

  ExecBackend JB = hotJit();
  ExecBackend IB;
  RunResult Jr = JB.run(M, nullEnv(), 100'000);
  RunResult Rr = IB.run(Ref, nullEnv(), 100'000);
  EXPECT_TRUE(Jr.Halted);
  EXPECT_EQ(Jr.Steps, Rr.Steps);
  EXPECT_EQ(M.Regs, Ref.Regs);
  EXPECT_EQ(M.Memory, Ref.Memory);
  // Iteration 1 runs the original "+1" body; the patch lands before
  // iterations 2..4, which add 2 each.
  EXPECT_EQ(M.Regs[2], 1u + 3u * 2u);
  if (jit::hostSupported()) {
    const jit::JitStats *St = JB.jitStats();
    ASSERT_NE(St, nullptr);
    EXPECT_GT(St->BlockInvalidations, 0u);
  }
}

namespace {

/// How the code on the patched page first reaches the decode cache
/// without a block being compiled for it.
enum class DecodedVia {
  OneStepRun,  ///< a one-step run: decoded, found halted, never hot
  ObservedRun, ///< an observed run: delegated to the interpreter loop
};

/// Page A (8192) holds a halt that the backend decodes without compiling
/// it, through a one-step run or an observed run; then a hot compiled
/// loop on page 0 rewrites it into a return and calls it, four times.  The
/// decoded slot is stale after the first store: only the PageCode mark
/// its decode left on page A makes the native store leave native code,
/// so the interpreted store drops the slot.  Without the mark the loop
/// "halts" at page A on its first call.
void expectDecodeWithoutCompileIsGuarded(DecodedVia Via) {
  std::vector<Instruction> P;
  emitConst(P, 3, encode(Instruction::jump(Func::Snd, 62,
                                           Operand::reg(10)))); // 0: return
  P.push_back(Instruction::loadConstant(1, false, 4));    // 8: iterations
  P.push_back(Instruction::loadConstant(10, false, 28));  // 12: return pc
  P.push_back(Instruction::loadConstant(11, false, 8192)); // 16: page A
  P.push_back(Instruction::storeMem(Operand::reg(3), Operand::reg(11))); // 20
  P.push_back(Instruction::jump(Func::Snd, 63, Operand::reg(11)));      // 24
  P.push_back(Instruction::normal(Func::Dec, 1, Operand::reg(1),
                                  Operand::imm(0)));      // 28
  P.push_back(Instruction::jumpIfNotZero(Func::Snd, Operand::imm(0),
                                         Operand::reg(1), -3)); // 32 -> 20
  P.push_back(Instruction::halt());                        // 36
  MachineState J = makeMachine(P);
  J.writeWord(8192, encode(Instruction::halt()));
  // The state as instantiated: nothing marked, every page's hash known.
  J.PageFlags.assign(J.PageFlags.size(), 0);
  std::vector<uint64_t> Known;
  for (size_t I = 0; I != J.PageFlags.size(); ++I)
    Known.push_back(pageHash(J.Memory.data() + (I << PageShift), PageSize));
  MachineState R = J;

  ExecBackend JB = hotJit();
  ExecBackend IB;
  uint64_t Steps[2] = {};
  MachineState *States[2] = {&J, &R};
  ExecBackend *Backends[2] = {&JB, &IB};
  for (int K = 0; K != 2; ++K) {
    MachineState &S = *States[K];
    ExecBackend &B = *Backends[K];
    // The set-up instructions (shorter than any block, so interpreted):
    // the backend is now bound to this memory.
    RunResult Setup = B.run(S, nullEnv(), 5);
    ASSERT_EQ(Setup.Steps, 5u);
    ASSERT_EQ(S.PC, 20u);
    S.PC = 8192;
    obs::Observer Null;
    ObsHooks Hooks;
    if (Via == DecodedVia::ObservedRun)
      Hooks.Obs = &Null;
    RunResult Probe = B.run(S, nullEnv(), 1, std::nullopt, &Hooks);
    ASSERT_TRUE(Probe.Halted);
    ASSERT_EQ(Probe.Steps, 0u);
    S.PC = 20;
    RunResult Run = B.run(S, nullEnv(), 100'000);
    EXPECT_TRUE(Run.Halted);
    Steps[K] = Setup.Steps + Run.Steps;
  }
  EXPECT_EQ(Steps[0], Steps[1]);
  EXPECT_EQ(J.PC, 36u);
  EXPECT_EQ(J.PC, R.PC);
  EXPECT_EQ(J.Regs, R.Regs);
  EXPECT_EQ(J.CarryFlag, R.CarryFlag);
  EXPECT_EQ(J.OverflowFlag, R.OverflowFlag);
  EXPECT_EQ(J.Memory, R.Memory);
  uint64_t Full = memoryHash(R.Memory.data(), R.memSize());
  EXPECT_EQ(memoryHashOf(J.Memory.data(), J.memSize(), J.PageFlags.data(),
                         Known.data()),
            Full);
  EXPECT_EQ(memoryHashOf(R.Memory.data(), R.memSize(), R.PageFlags.data(),
                         Known.data()),
            Full);
}

} // namespace

TEST(JitBackend, CodeDecodedByOneStepRunIsGuarded) {
  expectDecodeWithoutCompileIsGuarded(DecodedVia::OneStepRun);
}

TEST(JitBackend, CodeDecodedByObservedRunIsGuarded) {
  expectDecodeWithoutCompileIsGuarded(DecodedVia::ObservedRun);
}

TEST(JitBackend, ExternalInvalidateDropsCompiledBlocks) {
  // Oracle-style interference: memory is rewritten directly (as the
  // machine-sem FFI oracle does) and the backend is told via
  // invalidate(); translated code must not keep executing stale bytes.
  std::vector<Instruction> P = {
      addImm(2, 2, 1), // 0: loop body, externally patched to +2
      Instruction::normal(Func::Dec, 1, Operand::reg(1), Operand::imm(0)),
      Instruction::jumpIfNotZero(Func::Snd, Operand::imm(0),
                                 Operand::reg(1), -2),
      Instruction::halt(),
  };
  MachineState S = makeMachine(P);
  S.Regs[1] = 6;
  ExecBackend JB = hotJit();

  // First slice: three iterations, hot and compiled.
  MachineState Ref = S;
  ExecBackend IB;
  RunResult Jr = JB.run(S, nullEnv(), 9);
  RunResult Rr = IB.run(Ref, nullEnv(), 9);
  ASSERT_EQ(Jr.Steps, Rr.Steps);
  ASSERT_EQ(S.Regs, Ref.Regs);

  // Interference: patch the add, notify both backends.
  Word PatchedWord = encode(addImm(2, 2, 2));
  S.writeWord(0, PatchedWord);
  Ref.writeWord(0, PatchedWord);
  JB.invalidate(0, 4);
  IB.invalidate(0, 4);

  Jr = JB.run(S, nullEnv(), 100'000);
  Rr = IB.run(Ref, nullEnv(), 100'000);
  EXPECT_TRUE(Jr.Halted);
  EXPECT_EQ(Jr.Steps, Rr.Steps);
  EXPECT_EQ(S.Regs, Ref.Regs);
  EXPECT_EQ(S.Regs[2], 3u + 2u * 3u); // 3 old-body + 3 patched iterations
}

TEST(JitBackend, BudgetSweepHasExactStepAccounting) {
  // Every budget from 0 to past-halt over a store/branch/deopt-rich
  // program: step counts and intermediate states must match the
  // interpreter exactly (native blocks charge at entry and refund on
  // side exits; the run loop interprets budget tails).
  std::vector<Instruction> Prog = selfModifyingLoop();
  MachineState Ref0 = makeMachine(Prog);
  RunResult Full = ExecBackend().run(Ref0, nullEnv(), 100'000);
  ASSERT_TRUE(Full.Halted);

  for (uint64_t Budget = 0; Budget <= Full.Steps + 2; ++Budget) {
    MachineState J = makeMachine(Prog);
    MachineState R = makeMachine(Prog);
    RunResult Jr = hotJit().run(J, nullEnv(), Budget);
    RunResult Rr = ExecBackend().run(R, nullEnv(), Budget);
    ASSERT_EQ(Jr.Steps, Rr.Steps) << "budget " << Budget;
    ASSERT_EQ(Jr.Halted, Rr.Halted) << "budget " << Budget;
    ASSERT_EQ(J.PC, R.PC) << "budget " << Budget;
    ASSERT_EQ(J.Regs, R.Regs) << "budget " << Budget;
    ASSERT_EQ(J.CarryFlag, R.CarryFlag) << "budget " << Budget;
    ASSERT_EQ(J.Memory, R.Memory) << "budget " << Budget;
  }
}

TEST(JitBackend, BudgetResumeMatchesWholeRun) {
  // Slice-and-resume through ONE backend (blocks persist across calls)
  // against a single whole run.
  std::vector<Instruction> Prog = selfModifyingLoop();
  MachineState Whole = makeMachine(Prog);
  RunResult Wr = hotJit().run(Whole, nullEnv(), 100'000);
  ASSERT_TRUE(Wr.Halted);

  MachineState S = makeMachine(Prog);
  ExecBackend JB = hotJit();
  uint64_t Total = 0;
  for (int Slice = 0; Slice != 1000; ++Slice) {
    RunResult R = JB.run(S, nullEnv(), 3);
    Total += R.Steps;
    if (R.Halted)
      break;
    ASSERT_EQ(R.Fault, StepFault::None);
  }
  EXPECT_EQ(Total, Wr.Steps);
  EXPECT_EQ(S.Regs, Whole.Regs);
  EXPECT_EQ(S.Memory, Whole.Memory);
}

TEST(JitBackend, MovedBackendKeepsItsBlocks) {
  // MachineSem and the Isa session hold their backend by value: a move
  // halfway through a run carries the decoded slots and the compiled
  // blocks along, so the rest of the run recompiles nothing.
  std::vector<Instruction> Prog = selfModifyingLoop();
  MachineState Whole = makeMachine(Prog);
  ExecBackend WholeB = hotJit();
  RunResult Wr = WholeB.run(Whole, nullEnv(), 100'000);
  ASSERT_TRUE(Wr.Halted);

  MachineState S = makeMachine(Prog);
  ExecBackend First = hotJit();
  RunResult Half = First.run(S, nullEnv(), Wr.Steps / 2);
  ASSERT_FALSE(Half.Halted);
  ExecBackend Moved = std::move(First);
  RunResult Rest = Moved.run(S, nullEnv(), 100'000);
  EXPECT_TRUE(Rest.Halted);
  EXPECT_EQ(Half.Steps + Rest.Steps, Wr.Steps);
  EXPECT_EQ(S.PC, Whole.PC);
  EXPECT_EQ(S.Regs, Whole.Regs);
  EXPECT_EQ(S.CarryFlag, Whole.CarryFlag);
  EXPECT_EQ(S.OverflowFlag, Whole.OverflowFlag);
  EXPECT_EQ(S.Memory, Whole.Memory);
  if (jit::hostSupported()) {
    ASSERT_NE(Moved.jitStats(), nullptr);
    EXPECT_GT(Moved.jitStats()->BlocksCompiled, 0u);
    EXPECT_EQ(Moved.jitStats()->BlocksCompiled,
              WholeB.jitStats()->BlocksCompiled);
  }
}

TEST(JitBackend, RunUntilPcHonorsStopBoundary) {
  // A loop through a "syscall" stop PC: the run must stop before
  // executing it, every time, with interpreter-identical step counts —
  // no compiled block may straddle or chain over the boundary.
  std::vector<Instruction> P = {
      addImm(2, 2, 1),                                     // 0
      Instruction::normal(Func::Dec, 1, Operand::reg(1), Operand::imm(0)),
      Instruction::jumpIfZero(Func::Snd, Operand::imm(0),
                              Operand::reg(1), 3),         // 8 -> 20
      Instruction::jump(Func::Add, 63, Operand::imm(-12)), // 12 -> 0
      addImm(0, 0, 0),                                     // 16
      Instruction::halt(),                                 // 20: "syscall"
  };
  MachineState J = makeMachine(P);
  MachineState R = J;
  J.Regs[1] = 50;
  R.Regs[1] = 50;
  ExecBackend JB = hotJit();
  ExecBackend IB;

  uint64_t JSteps = 0, RSteps = 0;
  for (int Round = 0; Round != 200; ++Round) {
    RunResult Jr = JB.run(J, nullEnv(), 7, /*StopPc=*/20);
    RunResult Rr = IB.run(R, nullEnv(), 7, /*StopPc=*/20);
    ASSERT_EQ(Jr.Steps, Rr.Steps) << "round " << Round;
    ASSERT_EQ(Jr.AtStopPc, Rr.AtStopPc) << "round " << Round;
    ASSERT_EQ(Jr.Halted, Rr.Halted) << "round " << Round;
    ASSERT_EQ(J.PC, R.PC) << "round " << Round;
    ASSERT_EQ(J.Regs, R.Regs) << "round " << Round;
    JSteps += Jr.Steps;
    RSteps += Rr.Steps;
    if (Jr.AtStopPc || Jr.Halted)
      break;
  }
  EXPECT_EQ(JSteps, RSteps);
  EXPECT_EQ(J.PC, 20u); // parked at the stop PC, before executing it
  EXPECT_EQ(J.Regs[1], 0u);

  // Changing the stop PC mid-session (prepare-state restamp) stays exact.
  RunResult Jr = JB.run(J, nullEnv(), 100, /*StopPc=*/0);
  RunResult Rr = IB.run(R, nullEnv(), 100, /*StopPc=*/0);
  EXPECT_EQ(Jr.Steps, Rr.Steps);
  EXPECT_EQ(Jr.Halted, Rr.Halted);
  EXPECT_EQ(J.Regs, R.Regs);
}

TEST(JitBackend, HotLoopCompilesAndChains) {
  if (!jit::hostSupported())
    GTEST_SKIP() << "no native JIT on this host";
  // A two-block loop: head and body chain to each other, so after
  // warm-up the run loop is out of the picture entirely.
  std::vector<Instruction> P = {
      Instruction::loadConstant(1, false, 100'000), // 0
      addImm(2, 2, 1),                              // 4: loop head
      Instruction::normal(Func::Dec, 1, Operand::reg(1), Operand::imm(0)),
      Instruction::jumpIfNotZero(Func::Snd, Operand::imm(0),
                                 Operand::reg(1), -2), // 12 -> 4
      Instruction::halt(),
  };
  MachineState S = makeMachine(P);
  ExecBackend JB = hotJit();
  RunResult R = JB.run(S, nullEnv(), 10'000'000);
  EXPECT_TRUE(R.Halted);
  EXPECT_EQ(S.Regs[2], 100'000u);
  const jit::JitStats *St = JB.jitStats();
  ASSERT_NE(St, nullptr);
  EXPECT_GE(St->BlocksCompiled, 1u);
  EXPECT_EQ(St->Refused, decltype(St->Refused){});
}

TEST(JitBackend, StatsAndNameAreWellFormed) {
  // A backend asked for the JIT has one exactly where the host runs
  // native code; a backend asked for none interprets.
  ExecBackend JB(jit::JitOptions{});
  EXPECT_EQ(JB.jitStats() != nullptr, jit::hostSupported());
  ExecBackend IB;
  EXPECT_EQ(IB.jitStats(), nullptr);
}
