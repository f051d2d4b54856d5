//===- isa/jit/JitCompiler.cpp - Silver basic-block compiler --------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The copy-and-patch block compiler: one emission template per Silver
/// opcode, each mirroring isa/Interp.cpp's handler for that opcode bit
/// for bit.  A block is a straight-line run of instructions ending
/// at the first terminator (Jump / JumpIfZero / JumpIfNotZero) or just
/// before anything the JIT never translates — illegal words, the halt
/// self-jump, I/O instructions (In/Out/Interrupt call into the
/// environment), the active stop PC,
/// or the edge of memory.
///
/// The flag templates lean on x86 having the same ALU flag semantics as
/// Silver: for 32-bit add, CF equals Silver's Add/AddCarry carry-out
/// and OF equals the paper's signed-overflow formula
/// ((~(A^B)) & (A^R)) >> 31 (including adc's carry-in); for sub,
/// Silver's "no borrow" carry is !CF and OF matches
/// ((A^B) & (A^R)) >> 31.  Shift counts are masked to 5 bits by both
/// ISAs.  The SILVER_FAULT_INJECTION carry inversion is a frame byte
/// XORed into Add's carry at run time, so the fuzzing self-check's
/// mutation reaches translated code.
///
//===----------------------------------------------------------------------===//

#include "isa/Encoding.h"
#include "isa/jit/JitInternal.h"

#include <utility>

using namespace silver;
using namespace silver::isa;
using namespace silver::isa::jit;

const char *silver::isa::jit::refuseReasonId(RefuseReason R) {
  switch (R) {
  case RefuseReason::None:
    return "none";
  case RefuseReason::BlockTooLong:
    return "block-too-long";
  case RefuseReason::EmptyBlock:
    return "empty-block";
  case RefuseReason::StopPcGuard:
    return "stop-pc-guard";
  case RefuseReason::HostUnsupported:
    return "host-unsupported";
  case RefuseReason::ArenaTooSmall:
    return "arena-too-small";
  }
  return "none";
}

const char *silver::isa::jit::exitKindId(ExitKind K) {
  switch (K) {
  case ExitKind::Chain:
    return "chain";
  case ExitKind::Deopt:
    return "deopt";
  case ExitKind::Budget:
    return "budget";
  case ExitKind::Computed:
    return "computed";
  }
  return "chain";
}

namespace {

bool isTerminator(const Instruction &I) {
  return I.Op == Opcode::Jump || I.Op == Opcode::JumpIfZero ||
         I.Op == Opcode::JumpIfNotZero;
}

/// Instructions the JIT never includes in a block: they reach outside
/// the register-file/memory/flags state the templates model.
bool interpreterOnly(const Instruction &I) {
  return I.Op == Opcode::Interrupt || I.Op == Opcode::In ||
         I.Op == Opcode::Out;
}

struct Scan {
  std::vector<std::pair<Word, Instruction>> Insns;
  bool EndsWithTerminator = false;
  RefuseReason Refused = RefuseReason::None;

  bool ok() const { return Refused == RefuseReason::None && !Insns.empty(); }
};

/// Walks the block entered at \p Entry.
Scan scanBlock(const MachineState &State, Word Entry, bool HasGuard,
               Word GuardPc) {
  Scan S;
  Word Pc = Entry;
  while (S.Insns.size() < MaxBlockInstrs) {
    if (HasGuard && Pc == GuardPc) {
      if (Pc == Entry)
        S.Refused = RefuseReason::StopPcGuard;
      return S; // never compile at or across the stop PC
    }
    if (!State.inRange(Pc, 4) || !isAligned(Pc, 4))
      break;
    Result<Instruction> D = decode(State.readWord(Pc));
    if (!D)
      break;
    if (D->isSelfJump() || interpreterOnly(*D))
      break;
    S.Insns.emplace_back(Pc, *D);
    if (isTerminator(*D)) {
      S.EndsWithTerminator = true;
      return S;
    }
    Pc += 4;
  }
  if (S.Insns.empty())
    S.Refused = RefuseReason::EmptyBlock;
  else if (!S.EndsWithTerminator && S.Insns.size() >= MaxBlockInstrs)
    // A straight-line run with no terminator in sight is refused, not
    // split: the entry budget check retires a whole block up front, and
    // splitting would trade that exactness for open-ended block chains.
    S.Refused = RefuseReason::BlockTooLong;
  return S;
}

} // namespace

void silver::isa::jit::emitRuntimeThunks(Emitter &Em, size_t &EnterOff,
                                         size_t &ExitOff) {
  EnterOff = Em.size();
  Em.pushR(RBX);
  Em.pushR(RBP);
  Em.pushR(R13);
  Em.pushR(R14);
  Em.pushR(R15);
  Em.movRR64(R15, RDI);
  Em.loadRM64(R13, R15, FrameRegs);
  Em.loadRM64(R14, R15, FrameMem);
  Em.loadRM64(RBP, R15, FramePages);
  Em.loadRM64(RBX, R15, FrameSteps);
  Em.jmpR(RSI);

  ExitOff = Em.size();
  Em.storeMR(R15, FramePc, RAX);
  Em.storeMR64(R15, FrameSteps, RBX);
  Em.popR(R15);
  Em.popR(R14);
  Em.popR(R13);
  Em.popR(RBP);
  Em.popR(RBX);
  Em.ret();
}

bool silver::isa::jit::compileBlock(const MachineState &State, Word Entry,
                                    bool HasGuardPc, Word GuardPc,
                                    CompiledCode &Out, RefuseReason &Why) {
  if (State.Memory.size() > 0xffffffffull) {
    // The range-check templates fold memory size into an imm32; Silver
    // itself cannot address more anyway.
    Why = RefuseReason::HostUnsupported;
    return false;
  }
  Scan S = scanBlock(State, Entry, HasGuardPc, GuardPc);
  if (!S.ok()) {
    Why = S.Refused;
    return false;
  }

  const Word MemSize = static_cast<Word>(State.Memory.size());
  const unsigned Len = static_cast<unsigned>(S.Insns.size());
  Emitter Em;

  // Block entry: charge the whole block against the budget, or bail to
  // the budget stub.  The compare's imm32 form is deliberate — it keeps
  // the entry 7 bytes wide, so the 5-byte invalidation jump always fits.
  Em.cmpRI64(RBX, Len);
  size_t BudgetJcc = Em.jcc32(CondB);
  Em.subRI64(RBX, Len);

  // Side exits that deoptimize before instruction K commits anything.
  std::vector<std::vector<size_t>> DeoptJccs(Len);
  // Chain slots awaiting their in-block bounce stub.
  struct PendingSlot {
    size_t SlotOff;  ///< offset of the E9 byte
    size_t JmpField; ///< offset of its rel32
    Word Target;
  };
  std::vector<PendingSlot> Slots;

  auto loadOp = [&](const Operand &Op, HostReg Dst) {
    if (Op.IsImm)
      Em.movRI(Dst, Op.immValue());
    else
      Em.loadRM(Dst, R13, static_cast<int32_t>(4u * Op.Value));
  };
  auto storeReg = [&](unsigned W, HostReg Src) {
    Em.storeMR(R13, static_cast<int32_t>(4u * W), Src);
  };
  auto storeFlagsDlCl = [&]() {
    Em.storeMR8(R15, FrameCarry, RDX);
    Em.storeMR8(R15, FrameOvf, RCX);
  };

  // The ALU with A in eax and B in ecx: leaves the result in eax and
  // commits Silver flag updates to the frame, exactly as evalAlu.
  auto emitAluOp = [&](Func F) {
    switch (F) {
    case Func::Add:
      Em.addRR(RAX, RCX);
      Em.setcc(CondB, RDX); // carry-out
      Em.setcc(CondO, RCX); // signed overflow
      Em.xorR8M(RDX, R15, FrameInvert); // fault-injection inversion
      storeFlagsDlCl();
      break;
    case Func::AddCarry:
      Em.loadZxM8(RDX, R15, FrameCarry);
      Em.btRI(RDX, 0); // CF := current Silver carry
      Em.adcRR(RAX, RCX);
      Em.setcc(CondB, RDX); // AddCarry's carry is not inverted
      Em.setcc(CondO, RCX);
      storeFlagsDlCl();
      break;
    case Func::Sub:
      Em.subRR(RAX, RCX);
      Em.setcc(CondAE, RDX); // Silver carry = "no borrow" = !CF
      Em.setcc(CondO, RCX);
      storeFlagsDlCl();
      break;
    case Func::Carry:
      Em.loadZxM8(RAX, R15, FrameCarry);
      break;
    case Func::Overflow:
      Em.loadZxM8(RAX, R15, FrameOvf);
      break;
    case Func::Inc:
      Em.addRI(RAX, 1); // host flags not stored: Silver flags unchanged
      break;
    case Func::Dec:
      Em.subRI(RAX, 1);
      break;
    case Func::Mul:
      Em.imulRR(RAX, RCX); // low 32 bits: signed == unsigned
      break;
    case Func::MulHigh:
      Em.mulR(RCX); // unsigned edx:eax = eax * ecx
      Em.movRR(RAX, RDX);
      break;
    case Func::And:
      Em.andRR(RAX, RCX);
      break;
    case Func::Or:
      Em.orRR(RAX, RCX);
      break;
    case Func::Xor:
      Em.xorRR(RAX, RCX);
      break;
    case Func::Equal:
      Em.cmpRR(RAX, RCX);
      Em.setcc(CondE, RAX);
      Em.movzxR8(RAX, RAX);
      break;
    case Func::Less:
      Em.cmpRR(RAX, RCX);
      Em.setcc(CondL, RAX);
      Em.movzxR8(RAX, RAX);
      break;
    case Func::Lower:
      Em.cmpRR(RAX, RCX);
      Em.setcc(CondB, RAX);
      Em.movzxR8(RAX, RAX);
      break;
    case Func::Snd:
      Em.movRR(RAX, RCX);
      break;
    }
  };
  // Loads only the operands \p F consumes (reads have no side effects,
  // but Carry/Overflow must produce their result with eax untouched by
  // a pointless operand load).
  auto loadAluOperands = [&](Func F, const Operand &A, const Operand &B) {
    switch (F) {
    case Func::Carry:
    case Func::Overflow:
      return;
    case Func::Inc:
    case Func::Dec:
      loadOp(A, RAX);
      return;
    case Func::Snd:
      loadOp(B, RCX);
      return;
    default:
      loadOp(A, RAX);
      loadOp(B, RCX);
      return;
    }
  };
  // Exit to the dispatcher with \p Kind; eax already holds the next PC.
  auto emitExit = [&](uint32_t Kind) {
    Em.storeMI(R15, FrameExit, Kind);
    Out.ExitFixups.push_back(Em.jmp32());
  };
  auto canChain = [&](Word T) {
    return isAligned(T, 4) && State.inRange(T, 4) &&
           !(HasGuardPc && T == GuardPc);
  };
  // A terminator edge: a patchable chain slot when the constant target
  // can ever be a block entry, a plain ExitChain otherwise.
  auto emitEdge = [&](Word T) {
    if (canChain(T)) {
      size_t SlotOff = Em.size();
      size_t Field = Em.jmp32();
      Slots.push_back({SlotOff, Field, T});
    } else {
      Em.movRI(RAX, T);
      emitExit(ExitChain);
    }
  };

  for (unsigned K = 0; K != Len; ++K) {
    const Word P = S.Insns[K].first;
    const Instruction &I = S.Insns[K].second;
    auto deoptIf = [&](Cond C) { DeoptJccs[K].push_back(Em.jcc32(C)); };
    // Page-state check for a store to the page holding the address in
    // ecx: a code page deopts so the interpreted store invalidates
    // decoded slots and compiled blocks (the DecodeCache contract).  A
    // store that passes marks its page written; its PageCode bit is
    // known clear, so the mark is one plain byte store.
    auto pageCheck = [&]() {
      Em.movRR(RDX, RCX);
      Em.shrRI(RDX, PageShift);
      Em.testX8I(RBP, RDX, PageCode);
      deoptIf(CondNE);
      Em.storeX8I(RBP, RDX, PageWritten);
    };

    switch (I.Op) {
    case Opcode::Normal:
      loadAluOperands(I.F, I.A, I.B);
      emitAluOp(I.F);
      storeReg(I.WReg, RAX);
      break;
    case Opcode::Shift: {
      loadOp(I.A, RAX);
      loadOp(I.B, RCX);
      uint8_t Ext = 0;
      switch (I.Sh) {
      case ShiftKind::LogicalLeft:
        Ext = 4; // shl
        break;
      case ShiftKind::LogicalRight:
        Ext = 5; // shr
        break;
      case ShiftKind::ArithRight:
        Ext = 7; // sar
        break;
      case ShiftKind::RotateRight:
        Ext = 1; // ror
        break;
      }
      Em.shiftRCl(Ext, RAX); // cl masked to 5 bits, matching B & 31
      storeReg(I.WReg, RAX);
      break;
    }
    case Opcode::LoadMEM:
      loadOp(I.A, RCX);
      Em.testR8I(RCX, 3);
      deoptIf(CondNE); // MemMisaligned via the interpreter
      Em.cmpRI(RCX, MemSize - 4);
      deoptIf(CondA); // MemOutOfRange via the interpreter
      Em.loadRX(RAX, R14, RCX);
      storeReg(I.WReg, RAX);
      break;
    case Opcode::LoadMEMByte:
      loadOp(I.A, RCX);
      Em.cmpRI(RCX, MemSize - 1);
      deoptIf(CondA);
      Em.loadZxX8(RAX, R14, RCX);
      storeReg(I.WReg, RAX);
      break;
    case Opcode::StoreMEM:
      loadOp(I.B, RCX);
      Em.testR8I(RCX, 3);
      deoptIf(CondNE);
      Em.cmpRI(RCX, MemSize - 4);
      deoptIf(CondA);
      pageCheck(); // aligned word store: one page
      loadOp(I.A, RAX);
      Em.storeXR(R14, RCX, RAX);
      break;
    case Opcode::StoreMEMByte:
      loadOp(I.B, RCX);
      Em.cmpRI(RCX, MemSize - 1);
      deoptIf(CondA);
      pageCheck();
      loadOp(I.A, RAX);
      Em.storeXR8(R14, RCX, RAX);
      break;
    case Opcode::LoadConstant:
      Em.storeMI(R13, static_cast<int32_t>(4u * I.WReg),
                 I.Negate ? (0u - I.Imm) : I.Imm);
      break;
    case Opcode::LoadUpperConstant:
      Em.loadRM(RAX, R13, static_cast<int32_t>(4u * I.WReg));
      Em.andRI(RAX, 0x1fffff);
      Em.orRI(RAX, I.Imm << 21);
      storeReg(I.WReg, RAX);
      break;
    case Opcode::Jump: {
      // Target = alu(F, PC, a) with its flag updates, then the link
      // write — in that order, so `jump add r5, r5` links correctly.
      if (I.F == Func::Add && I.A.IsImm) {
        // Direct jump: target and flags are compile-time constants,
        // except Add's carry inversion which stays a run-time XOR.
        const Word ImmW = I.A.immValue();
        const Word T = P + ImmW;
        const uint8_t Carry0 =
            (uint64_t(P) + uint64_t(ImmW) > 0xffffffffull) ? 1 : 0;
        const uint8_t Ovf0 = (((~(P ^ ImmW)) & (P ^ T)) >> 31) & 1;
        Em.movR8I(RDX, Carry0);
        Em.xorR8M(RDX, R15, FrameInvert);
        Em.storeMR8(R15, FrameCarry, RDX);
        Em.storeMI8(R15, FrameOvf, Ovf0);
        Em.storeMI(R13, static_cast<int32_t>(4u * I.WReg), P + 4);
        emitEdge(T);
      } else {
        Em.movRI(RAX, P); // the ALU's A operand is the current PC
        loadOp(I.A, RCX);
        emitAluOp(I.F);
        Em.storeMI(R13, static_cast<int32_t>(4u * I.WReg), P + 4);
        emitExit(ExitComputed); // the dispatcher resolves the target
      }
      break;
    }
    case Opcode::JumpIfZero:
    case Opcode::JumpIfNotZero: {
      loadAluOperands(I.F, I.A, I.B);
      emitAluOp(I.F); // flag updates happen whether or not we branch
      Em.testRR(RAX, RAX);
      size_t TakenJcc =
          Em.jcc32(I.Op == Opcode::JumpIfZero ? CondE : CondNE);
      emitEdge(P + 4); // fall-through edge
      Em.patchRel32(TakenJcc, Em.size());
      emitEdge(P + static_cast<Word>(I.Offset) * 4); // taken edge
      break;
    }
    case Opcode::Interrupt:
    case Opcode::In:
    case Opcode::Out:
      break; // unreachable: the scan stops before these
    }
  }

  if (!S.EndsWithTerminator) {
    // The block ended just before something the JIT never translates;
    // hand the dispatcher the next PC.
    Em.movRI(RAX, S.Insns.back().first + 4);
    emitExit(ExitChain);
  }

  // Deopt stubs: refund the uncommitted tail of the entry charge and
  // report the exact PC to resume interpretation at.
  for (unsigned K = 0; K != Len; ++K) {
    if (DeoptJccs[K].empty())
      continue;
    size_t StubAt = Em.size();
    for (size_t F : DeoptJccs[K])
      Em.patchRel32(F, StubAt);
    Em.movRI(RAX, S.Insns[K].first);
    Em.addRI64(RBX, Len - K);
    Em.storeMI(R15, FrameExit, ExitDeopt);
    Out.ExitFixups.push_back(Em.jmp32());
  }

  // Chain-slot bounce stubs: until the backend patches a slot to its
  // target block, the edge exits to the dispatcher.
  for (const PendingSlot &PS : Slots) {
    Em.patchRel32(PS.JmpField, Em.size());
    Em.movRI(RAX, PS.Target);
    Em.storeMI(R15, FrameExit, ExitChain);
    Out.ExitFixups.push_back(Em.jmp32());
    Out.Chains.push_back({PS.SlotOff, PS.Target});
  }

  // Budget stub: a chained entry found too little budget left; nothing
  // was charged (the sub is skipped), so just report where we stand.
  Em.patchRel32(BudgetJcc, Em.size());
  Em.movRI(RAX, Entry);
  Em.storeMI(R15, FrameExit, ExitBudget);
  Out.ExitFixups.push_back(Em.jmp32());

  // Invalidation stub: the patched-over entry of a dropped block lands
  // here, bouncing stale incoming chains back to the dispatcher.
  Out.InvalidStubOff = Em.size();
  Em.movRI(RAX, Entry);
  Em.storeMI(R15, FrameExit, ExitChain);
  Out.ExitFixups.push_back(Em.jmp32());

  Out.Bytes = std::move(Em.Code);
  Out.Instrs = Len;
  Out.FirstByte = Entry;
  Out.LastByte = S.Insns.back().first + 3;
  Why = RefuseReason::None;
  return true;
}
