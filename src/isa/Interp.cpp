//===- isa/Interp.cpp - The Silver ISA next-state function ----------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "isa/Interp.h"

#include "isa/DecodeCache.h"

using namespace silver;
using namespace silver::isa;

IsaEnv::~IsaEnv() = default;

void IsaEnv::onInterrupt(MachineState &) {}

Word IsaEnv::inputWord(MachineState &) { return 0; }

void IsaEnv::onOutput(MachineState &, Word) {}

IsaEnv &silver::isa::nullEnv() {
  static IsaEnv Env;
  return Env;
}

#if SILVER_FAULT_INJECTION
bool silver::isa::fault::InvertAddCarry = false;
#endif

AluResult silver::isa::evalAlu(Func F, Word A, Word B, bool CarryIn,
                               bool OverflowIn) {
  AluResult R;
  switch (F) {
  case Func::Add: {
    uint64_t Wide = uint64_t(A) + uint64_t(B);
    R.Value = static_cast<Word>(Wide);
    R.Carry = (Wide > 0xffffffffull) != fault::InvertAddCarry;
    R.Overflow = ((~(A ^ B)) & (A ^ R.Value)) >> 31;
    R.FlagsUpdated = true;
    break;
  }
  case Func::AddCarry: {
    uint64_t Wide = uint64_t(A) + uint64_t(B) + (CarryIn ? 1 : 0);
    R.Value = static_cast<Word>(Wide);
    R.Carry = Wide > 0xffffffffull;
    R.Overflow = ((~(A ^ B)) & (A ^ R.Value)) >> 31;
    R.FlagsUpdated = true;
    break;
  }
  case Func::Sub: {
    R.Value = A - B;
    // Carry here means "no borrow", matching a subtract implemented as
    // A + ~B + 1 on the adder.
    R.Carry = A >= B;
    R.Overflow = ((A ^ B) & (A ^ R.Value)) >> 31;
    R.FlagsUpdated = true;
    break;
  }
  case Func::Carry:
    R.Value = CarryIn ? 1 : 0;
    break;
  case Func::Overflow:
    R.Value = OverflowIn ? 1 : 0;
    break;
  case Func::Inc:
    R.Value = A + 1;
    break;
  case Func::Dec:
    R.Value = A - 1;
    break;
  case Func::Mul:
    R.Value = static_cast<Word>(uint64_t(A) * uint64_t(B));
    break;
  case Func::MulHigh:
    R.Value = static_cast<Word>((uint64_t(A) * uint64_t(B)) >> 32);
    break;
  case Func::And:
    R.Value = A & B;
    break;
  case Func::Or:
    R.Value = A | B;
    break;
  case Func::Xor:
    R.Value = A ^ B;
    break;
  case Func::Equal:
    R.Value = A == B ? 1 : 0;
    break;
  case Func::Less:
    R.Value = asSigned(A) < asSigned(B) ? 1 : 0;
    break;
  case Func::Lower:
    R.Value = A < B ? 1 : 0;
    break;
  case Func::Snd:
    R.Value = B;
    break;
  }
  return R;
}

Word silver::isa::evalShift(ShiftKind K, Word A, Word B) {
  unsigned Amount = B & 31;
  switch (K) {
  case ShiftKind::LogicalLeft:
    return A << Amount;
  case ShiftKind::LogicalRight:
    return A >> Amount;
  case ShiftKind::ArithRight:
    return static_cast<Word>(asSigned(A) >> Amount);
  case ShiftKind::RotateRight:
    return rotateRight(A, Amount);
  }
  return 0;
}

/// Applies the ALU and commits flag updates to the state.
static Word applyAlu(MachineState &State, Func F, Word A, Word B) {
  AluResult R =
      evalAlu(F, A, B, State.CarryFlag, State.OverflowFlag);
  if (R.FlagsUpdated) {
    State.CarryFlag = R.Carry;
    State.OverflowFlag = R.Overflow;
  }
  return R.Value;
}

namespace {

/// No-op emitter: execImpl and runImpl instantiated with it are the
/// uninstrumented interpreter, bit-identical to the pre-observability
/// code.
struct NullEmit {
  void mem(Word, uint8_t, bool) {}
  void retire(Word, const Instruction &) {}
  void afterStep(const MachineState &) {}
};

/// Observer-backed emitter; retirements are numbered from RetireIndex.
struct ObsEmit {
  obs::Observer &Obs;
  uint64_t RetireIndex;
  void mem(Word Addr, uint8_t Size, bool IsWrite) {
    obs::MemEvent E;
    E.Addr = Addr;
    E.Size = Size;
    E.IsWrite = IsWrite;
    Obs.onMem(E);
  }
  void retire(Word Pc, const Instruction &I) {
    obs::RetireEvent E;
    E.Pc = Pc;
    E.Opcode = static_cast<uint8_t>(I.Op);
    E.Mnemonic = opcodeName(I.Op);
    E.Index = RetireIndex++;
    Obs.onRetire(E);
  }
};

/// The observed run loop's emitter: ObsEmit plus the closing of an open
/// FFI span (ObsHooks) after each executed instruction.
struct HooksEmit : ObsEmit {
  ObsHooks &H;
  void afterStep(const MachineState &State) {
    if (H.InFfi &&
        (State.PC < H.FfiRegionBegin || State.PC >= H.FfiRegionEnd)) {
      H.InFfi = false;
      Obs.onFfi({H.FfiIndex, /*Entry=*/false});
    }
  }
};

/// Store-invalidation policies for execImpl: the uncached interpreter
/// does nothing, the cached one drops the overwritten decode slots so
/// self-modifying code keeps matching the reference semantics.
struct NoInval {
  void operator()(Word, Word) {}
};
struct CacheInval {
  DecodeCache &Cache;
  void operator()(Word Addr, Word Size) { Cache.invalidate(Addr, Size); }
};

} // namespace

/// Executes the already-decoded \p I at State.PC.  The fetch-side checks
/// (PC range/alignment, decodability) are the caller's: stepImpl does
/// them per step, the cached step and the run loop get them from the
/// cache entry.
template <class Emit, class Inval>
static StepResult execImpl(MachineState &State, IsaEnv &Env,
                           const Instruction &I, Emit &&E, Inval &&Inv) {
  StepResult Out;
  Word NextPC = State.PC + 4;

  switch (I.Op) {
  case Opcode::Normal:
    State.Regs[I.WReg] =
        applyAlu(State, I.F, State.operandValue(I.A),
                 State.operandValue(I.B));
    break;
  case Opcode::Shift:
    State.Regs[I.WReg] =
        evalShift(I.Sh, State.operandValue(I.A), State.operandValue(I.B));
    break;
  case Opcode::LoadMEM: {
    Word Addr = State.operandValue(I.A);
    if (!State.inRange(Addr, 4)) {
      Out.Fault = StepFault::MemOutOfRange;
      return Out;
    }
    if (!isAligned(Addr, 4)) {
      Out.Fault = StepFault::MemMisaligned;
      return Out;
    }
    E.mem(Addr, 4, /*IsWrite=*/false);
    State.Regs[I.WReg] = State.readWord(Addr);
    break;
  }
  case Opcode::LoadMEMByte: {
    Word Addr = State.operandValue(I.A);
    if (!State.inRange(Addr, 1)) {
      Out.Fault = StepFault::MemOutOfRange;
      return Out;
    }
    E.mem(Addr, 1, /*IsWrite=*/false);
    State.Regs[I.WReg] = State.readByte(Addr);
    break;
  }
  case Opcode::StoreMEM: {
    Word Addr = State.operandValue(I.B);
    if (!State.inRange(Addr, 4)) {
      Out.Fault = StepFault::MemOutOfRange;
      return Out;
    }
    if (!isAligned(Addr, 4)) {
      Out.Fault = StepFault::MemMisaligned;
      return Out;
    }
    E.mem(Addr, 4, /*IsWrite=*/true);
    State.writeWord(Addr, State.operandValue(I.A));
    Inv(Addr, 4);
    break;
  }
  case Opcode::StoreMEMByte: {
    Word Addr = State.operandValue(I.B);
    if (!State.inRange(Addr, 1)) {
      Out.Fault = StepFault::MemOutOfRange;
      return Out;
    }
    E.mem(Addr, 1, /*IsWrite=*/true);
    State.writeByte(Addr, static_cast<uint8_t>(State.operandValue(I.A)));
    Inv(Addr, 1);
    break;
  }
  case Opcode::LoadConstant: {
    Word V = I.Imm;
    State.Regs[I.WReg] = I.Negate ? (0u - V) : V;
    break;
  }
  case Opcode::LoadUpperConstant:
    State.Regs[I.WReg] =
        (I.Imm << 21) | (State.Regs[I.WReg] & 0x1fffff);
    break;
  case Opcode::Jump: {
    // The link register receives the return address; the new PC is
    // alu(func, PC, a): Add gives PC-relative, Snd gives absolute.
    Word Target = applyAlu(State, I.F, State.PC, State.operandValue(I.A));
    State.Regs[I.WReg] = State.PC + 4;
    NextPC = Target;
    break;
  }
  case Opcode::JumpIfZero: {
    Word Test = applyAlu(State, I.F, State.operandValue(I.A),
                         State.operandValue(I.B));
    if (Test == 0)
      NextPC = State.PC + static_cast<Word>(I.Offset) * 4;
    break;
  }
  case Opcode::JumpIfNotZero: {
    Word Test = applyAlu(State, I.F, State.operandValue(I.A),
                         State.operandValue(I.B));
    if (Test != 0)
      NextPC = State.PC + static_cast<Word>(I.Offset) * 4;
    break;
  }
  case Opcode::Interrupt:
    Env.onInterrupt(State);
    break;
  case Opcode::In:
    State.Regs[I.WReg] = Env.inputWord(State);
    break;
  case Opcode::Out: {
    Word V = State.operandValue(I.A);
    State.DataOut = V;
    Env.onOutput(State, V);
    break;
  }
  }

  E.retire(State.PC, I);
  State.PC = NextPC;
  return Out;
}

/// Reference fetch-decode-execute step.
template <class Emit>
static StepResult stepImpl(MachineState &State, IsaEnv &Env, Emit &&E) {
  StepResult Out;
  if (!State.inRange(State.PC, 4)) {
    Out.Fault = StepFault::PcOutOfRange;
    return Out;
  }
  if (!isAligned(State.PC, 4)) {
    Out.Fault = StepFault::PcMisaligned;
    return Out;
  }
  Result<Instruction> Decoded = decode(State.readWord(State.PC));
  if (!Decoded) {
    Out.Fault = StepFault::IllegalInstruction;
    return Out;
  }
  return execImpl(State, Env, *Decoded, E, NoInval{});
}

StepResult silver::isa::step(MachineState &State, IsaEnv &Env) {
  NullEmit E;
  return stepImpl(State, Env, E);
}

StepResult silver::isa::step(MachineState &State, IsaEnv &Env,
                             obs::Observer &Obs, uint64_t RetireIndex) {
  ObsEmit E{Obs, RetireIndex};
  return stepImpl(State, Env, E);
}

StepResult silver::isa::step(MachineState &State, IsaEnv &Env,
                             DecodeCache &Cache) {
  // The fetch-side checks survive, but the decode comes from the cache
  // (and stores drop the slots they overwrite).
  StepResult Out;
  if (!State.inRange(State.PC, 4)) {
    Out.Fault = StepFault::PcOutOfRange;
    return Out;
  }
  if (!isAligned(State.PC, 4)) {
    Out.Fault = StepFault::PcMisaligned;
    return Out;
  }
  const DecodedInsn &D = Cache.lookup(State, State.PC);
  if (D.St == DecodedInsn::Illegal) {
    Out.Fault = StepFault::IllegalInstruction;
    return Out;
  }
  NullEmit E;
  return execImpl(State, Env, D.I, E, CacheInval{Cache});
}

bool silver::isa::isHalted(const MachineState &State) {
  if (!State.inRange(State.PC, 4) || !isAligned(State.PC, 4))
    return false;
  Result<Instruction> Decoded = decode(State.readWord(State.PC));
  return Decoded && Decoded->isSelfJump();
}

RunResult silver::isa::run(MachineState &State, IsaEnv &Env,
                           uint64_t MaxSteps) {
  RunResult R;
  while (R.Steps < MaxSteps) {
    if (isHalted(State)) {
      R.Halted = true;
      return R;
    }
    StepResult S = step(State, Env);
    if (!S.ok()) {
      R.Fault = S.Fault;
      return R;
    }
    ++R.Steps;
  }
  return R;
}

/// The predecoded loop behind every run.  The reference loop above
/// fetches and decodes PC twice per iteration (isHalted, then step);
/// here both collapse into one cache lookup, and on a hit the body is
/// check-flag-and-execute.  \p HasStop and the emitter are compile-time:
/// with NullEmit the after-step hook vanishes, and without a stop
/// PC so does its compare.  Each instantiation stays its own function:
/// inlined together into run(), they share one register allocation, and
/// with GCC -O3 on x86-64 the Isa-level loop spilled its step counter
/// and environment pointer to the stack (4–10% slower).
template <bool HasStop, class Emit>
[[gnu::noinline]] static RunResult runImpl(MachineState &State, IsaEnv &Env,
                         DecodeCache &Cache, uint64_t MaxSteps, Word StopPc,
                         Emit &E) {
  RunResult R;
  while (R.Steps < MaxSteps) {
    if (HasStop && State.PC == StopPc) {
      R.AtStopPc = true;
      return R;
    }
    if (!State.inRange(State.PC, 4) || !isAligned(State.PC, 4)) {
      // Not a halt; take the reference step to report the exact fault.
      R.Fault = step(State, Env).Fault;
      return R;
    }
    const DecodedInsn &D = Cache.lookup(State, State.PC);
    if (D.St == DecodedInsn::Illegal) {
      R.Fault = StepFault::IllegalInstruction;
      return R;
    }
    if (D.SelfJump) {
      R.Halted = true;
      return R;
    }
    StepResult S = execImpl(State, Env, D.I, E, CacheInval{Cache});
    if (!S.ok()) {
      R.Fault = S.Fault;
      return R;
    }
    ++R.Steps;
    E.afterStep(State);
  }
  return R;
}

template <class Emit>
static RunResult runWith(MachineState &State, IsaEnv &Env,
                         DecodeCache &Cache, uint64_t MaxSteps,
                         std::optional<Word> StopPc, Emit &E) {
  return StopPc ? runImpl<true>(State, Env, Cache, MaxSteps, *StopPc, E)
                : runImpl<false>(State, Env, Cache, MaxSteps, 0, E);
}

RunResult silver::isa::run(MachineState &State, IsaEnv &Env,
                           DecodeCache &Cache, uint64_t MaxSteps,
                           std::optional<Word> StopPc, ObsHooks *Hooks) {
  if (!Hooks || !Hooks->Obs) {
    NullEmit E;
    return runWith(State, Env, Cache, MaxSteps, StopPc, E);
  }
  HooksEmit E{{*Hooks->Obs, Hooks->RetireIndexBase}, *Hooks};
  RunResult R = runWith(State, Env, Cache, MaxSteps, StopPc, E);
  Hooks->RetireIndexBase = E.RetireIndex;
  return R;
}
