//===- isa/Interp.cpp - The Silver ISA next-state function ----------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "isa/Interp.h"

#include "isa/DecodeCache.h"
#include "isa/Effects.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <type_traits>
#include <utility>

using namespace silver;
using namespace silver::isa;

IsaEnv::~IsaEnv() = default;

void IsaEnv::onInterrupt(MachineState &) {}

Word IsaEnv::inputWord(MachineState &) { return 0; }

void IsaEnv::onOutput(MachineState &, Word) {}

BlockHook::~BlockHook() = default;

IsaEnv &silver::isa::nullEnv() {
  static IsaEnv Env;
  return Env;
}

#if SILVER_FAULT_INJECTION
bool silver::isa::fault::InvertAddCarry = false;
#endif

namespace {

/// The Silver ALU, one function at a time: the single definition behind
/// evalAlu and every ALU-using handler.
template <Func F>
inline AluResult alu(Word A, Word B, bool CarryIn, bool OverflowIn) {
  AluResult R;
  R.FlagsUpdated = funcWritesFlags(F);
  if constexpr (F == Func::Add) {
    uint64_t Wide = uint64_t(A) + uint64_t(B);
    R.Value = static_cast<Word>(Wide);
    R.Carry = (Wide > 0xffffffffull) != fault::InvertAddCarry;
    R.Overflow = ((~(A ^ B)) & (A ^ R.Value)) >> 31;
  } else if constexpr (F == Func::AddCarry) {
    uint64_t Wide = uint64_t(A) + uint64_t(B) + (CarryIn ? 1 : 0);
    R.Value = static_cast<Word>(Wide);
    R.Carry = Wide > 0xffffffffull;
    R.Overflow = ((~(A ^ B)) & (A ^ R.Value)) >> 31;
  } else if constexpr (F == Func::Sub) {
    R.Value = A - B;
    // Carry here means "no borrow", matching a subtract implemented as
    // A + ~B + 1 on the adder.
    R.Carry = A >= B;
    R.Overflow = ((A ^ B) & (A ^ R.Value)) >> 31;
  } else if constexpr (F == Func::Carry) {
    R.Value = CarryIn ? 1 : 0;
  } else if constexpr (F == Func::Overflow) {
    R.Value = OverflowIn ? 1 : 0;
  } else if constexpr (F == Func::Inc) {
    R.Value = A + 1;
  } else if constexpr (F == Func::Dec) {
    R.Value = A - 1;
  } else if constexpr (F == Func::Mul) {
    R.Value = static_cast<Word>(uint64_t(A) * uint64_t(B));
  } else if constexpr (F == Func::MulHigh) {
    R.Value = static_cast<Word>((uint64_t(A) * uint64_t(B)) >> 32);
  } else if constexpr (F == Func::And) {
    R.Value = A & B;
  } else if constexpr (F == Func::Or) {
    R.Value = A | B;
  } else if constexpr (F == Func::Xor) {
    R.Value = A ^ B;
  } else if constexpr (F == Func::Equal) {
    R.Value = A == B ? 1 : 0;
  } else if constexpr (F == Func::Less) {
    R.Value = asSigned(A) < asSigned(B) ? 1 : 0;
  } else if constexpr (F == Func::Lower) {
    R.Value = A < B ? 1 : 0;
  } else {
    static_assert(F == Func::Snd);
    R.Value = B;
  }
  return R;
}

/// The shift unit, one kind at a time.
template <ShiftKind K> inline Word shift(Word A, Word B) {
  unsigned Amount = B & 31;
  if constexpr (K == ShiftKind::LogicalLeft)
    return A << Amount;
  else if constexpr (K == ShiftKind::LogicalRight)
    return A >> Amount;
  else if constexpr (K == ShiftKind::ArithRight)
    return static_cast<Word>(asSigned(A) >> Amount);
  else
    return rotateRight(A, Amount);
}

} // namespace

AluResult silver::isa::evalAlu(Func F, Word A, Word B, bool CarryIn,
                               bool OverflowIn) {
  static constexpr auto Funcs = []<size_t... Fs>(std::index_sequence<Fs...>) {
    return std::array{&alu<Func(Fs)>...};
  }(std::make_index_sequence<NumFuncs>());
  return Funcs[size_t(F)](A, B, CarryIn, OverflowIn);
}

Word silver::isa::evalShift(ShiftKind K, Word A, Word B) {
  static constexpr auto Kinds = []<size_t... Ks>(std::index_sequence<Ks...>) {
    return std::array{&shift<ShiftKind(Ks)>...};
  }(std::make_index_sequence<NumShiftKinds>());
  return Kinds[size_t(K)](A, B);
}

namespace {

/// No-op emitter: handlers and run loops instantiated with it are the
/// uninstrumented interpreter.
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

/// The block-hook run's emitter: the loop enters Hook before each
/// instruction it would interpret, and stores into code pages tell it.
struct JitEmit : NullEmit {
  BlockHook &Hook;
  uint64_t NativeTail = 0; ///< native steps beyond their block entry
};

template <class Emit>
constexpr bool HasBlockHook = std::is_same_v<Emit, JitEmit>;

/// What a handler needs beyond the state and the slot.
template <class Emit> struct Ctx {
  IsaEnv &Env;
  /// The cache the slot came from, whose slots stores invalidate; null
  /// in the reference step.
  DecodeCache *Cache;
  Emit &E;
  /// Whether the halt self-jump ends the run (run loops) or executes
  /// like any jump (single steps).
  bool HaltStops;
};

/// A handler's outcome: StepFault::None to go on, a fault (the
/// instruction had no effect), or HaltSeen.
constexpr StepFault HaltSeen = static_cast<StepFault>(0xff);

template <class Emit>
using Handler = StepFault (*)(MachineState &, const DecodedInsn &,
                              Ctx<Emit> &);

/// The instruction form a fast handler byte stands for (the inverse of
/// handler::index).
struct Form {
  Opcode Op;
  unsigned Variant;
  bool AImm, BImm;
};

constexpr Form formOf(uint8_t H) {
  unsigned O = 0;
  while (handler::base(static_cast<Opcode>(O + 1)) <= H)
    ++O;
  Opcode Op = static_cast<Opcode>(O);
  unsigned Rel = H - handler::base(Op);
  unsigned N = handler::operandCount(Op);
  unsigned Forms = (Rel & ((1u << N) - 1)) << (2 - N); // A in bit 1, B in 0
  return {Op, Rel >> N, (Forms & 2) != 0, (Forms & 1) != 0};
}

template <bool Imm> inline Word operand(const MachineState &S, Operand Op) {
  if constexpr (Imm)
    return Op.immValue();
  else
    return S.Regs[Op.Value];
}

/// Applies ALU function F and commits the flags it updates.
template <Func F> inline Word applyAlu(MachineState &S, Word A, Word B) {
  AluResult R = alu<F>(A, B, S.CarryFlag, S.OverflowFlag);
  if constexpr (funcWritesFlags(F)) {
    S.CarryFlag = R.Carry;
    S.OverflowFlag = R.Overflow;
  }
  return R.Value;
}

/// Out of line: the handlers inline everything else, and stores into
/// code pages are rare.
[[gnu::noinline, gnu::cold]] void dropSlots(DecodeCache &Cache, Word Addr,
                                            Word Size) {
  Cache.invalidate(Addr, Size);
}

/// Stores drop the decoded slots they overwrite.  A page that is not
/// marked code holds no filled slot (isa/DecodeCache.h), so only stores
/// into code pages reach the cache.
template <class Emit>
inline void stored(MachineState &S, Ctx<Emit> &C, Word Addr, Word Size) {
  if (S.touchesCode(Addr, Size) && C.Cache) {
    dropSlots(*C.Cache, Addr, Size);
    if constexpr (HasBlockHook<Emit>)
      C.E.Hook.stored(Addr, Size);
  }
}

/// The handler of fast form H (1..254): the Silver semantics of one
/// instruction form, written once.  Faults leave the state untouched;
/// otherwise the instruction retires and PC moves on.
template <class Emit, uint8_t H>
[[gnu::flatten]] StepFault handle(MachineState &S, const DecodedInsn &D,
                                  Ctx<Emit> &C) {
  constexpr Form Fm = formOf(H);
  constexpr bool AImm = Fm.AImm, BImm = Fm.BImm;
  const Instruction &I = D.I;
  const Word Pc = S.PC;
  Word NextPC = Pc + 4;
  if constexpr (Fm.Op == Opcode::Normal) {
    constexpr Func F = static_cast<Func>(Fm.Variant);
    S.Regs[I.WReg] =
        applyAlu<F>(S, operand<AImm>(S, I.A), operand<BImm>(S, I.B));
  } else if constexpr (Fm.Op == Opcode::Shift) {
    constexpr ShiftKind K = static_cast<ShiftKind>(Fm.Variant);
    S.Regs[I.WReg] = shift<K>(operand<AImm>(S, I.A), operand<BImm>(S, I.B));
  } else if constexpr (Fm.Op == Opcode::LoadMEM ||
                       Fm.Op == Opcode::LoadMEMByte) {
    constexpr Word Size = Fm.Op == Opcode::LoadMEM ? 4 : 1;
    Word Addr = operand<AImm>(S, I.A);
    if (!S.inRange(Addr, Size))
      return StepFault::MemOutOfRange;
    if (!isAligned(Addr, Size))
      return StepFault::MemMisaligned;
    C.E.mem(Addr, Size, /*IsWrite=*/false);
    S.Regs[I.WReg] = Size == 4 ? S.readWord(Addr) : S.readByte(Addr);
  } else if constexpr (Fm.Op == Opcode::StoreMEM ||
                       Fm.Op == Opcode::StoreMEMByte) {
    constexpr Word Size = Fm.Op == Opcode::StoreMEM ? 4 : 1;
    Word Addr = operand<BImm>(S, I.B);
    if (!S.inRange(Addr, Size))
      return StepFault::MemOutOfRange;
    if (!isAligned(Addr, Size))
      return StepFault::MemMisaligned;
    C.E.mem(Addr, Size, /*IsWrite=*/true);
    Word V = operand<AImm>(S, I.A);
    if constexpr (Size == 4)
      S.writeWord(Addr, V);
    else
      S.writeByte(Addr, static_cast<uint8_t>(V));
    stored(S, C, Addr, Size);
  } else if constexpr (Fm.Op == Opcode::LoadConstant) {
    S.Regs[I.WReg] = I.Negate ? (0u - I.Imm) : I.Imm;
  } else if constexpr (Fm.Op == Opcode::LoadUpperConstant) {
    S.Regs[I.WReg] = (I.Imm << 21) | (S.Regs[I.WReg] & 0x1fffff);
  } else if constexpr (Fm.Op == Opcode::Jump) {
    // The link register receives the return address after the target
    // is computed (`jump add r5, r5` reads r5 first); the new PC is
    // alu(func, PC, a): Add gives PC-relative, Snd gives absolute.
    constexpr Func F = static_cast<Func>(Fm.Variant);
    NextPC = applyAlu<F>(S, Pc, operand<AImm>(S, I.A));
    S.Regs[I.WReg] = Pc + 4;
  } else {
    static_assert(Fm.Op == Opcode::JumpIfZero ||
                  Fm.Op == Opcode::JumpIfNotZero);
    constexpr Func F = static_cast<Func>(Fm.Variant);
    Word Test = applyAlu<F>(S, operand<AImm>(S, I.A), operand<BImm>(S, I.B));
    if ((Test == 0) == (Fm.Op == Opcode::JumpIfZero))
      NextPC = Pc + static_cast<Word>(I.Offset) * 4;
  }
  C.E.retire(Pc, I);
  S.PC = NextPC;
  return StepFault::None;
}

/// Handler 255: the illegal word, the halt self-jump and the I/O
/// instructions.
template <class Emit>
StepFault slowPath(MachineState &S, const DecodedInsn &D, Ctx<Emit> &C) {
  if (D.Illegal)
    return StepFault::IllegalInstruction;
  const Instruction &I = D.I;
  if (I.isSelfJump()) {
    if (C.HaltStops)
      return HaltSeen;
    constexpr uint8_t Jump =
        handler::index(Opcode::Jump, unsigned(Func::Add), true, false);
    return handle<Emit, Jump>(S, D, C);
  }
  Word NextPC = S.PC + 4;
  switch (I.Op) {
  case Opcode::Interrupt:
    C.Env.onInterrupt(S);
    break;
  case Opcode::In:
    S.Regs[I.WReg] = C.Env.inputWord(S);
    break;
  case Opcode::Out: {
    Word V = S.operandValue(I.A);
    S.DataOut = V;
    C.Env.onOutput(S, V);
    break;
  }
  default:
    assert(false && "fast form on the slow path");
  }
  C.E.retire(S.PC, I);
  S.PC = NextPC;
  return StepFault::None;
}

template <class Emit> struct Table;

/// Handler 0: decode the slot (a lookup that misses), then run it.
template <class Emit>
StepFault fillThenRun(MachineState &S, const DecodedInsn &, Ctx<Emit> &C) {
  const DecodedInsn &D = C.Cache->lookup(S, S.PC);
  return Table<Emit>::Handlers[D.H](S, D, C);
}

/// The dispatch table: handler byte to handler, one per emitter.
template <class Emit> struct Table {
  template <size_t... Hs>
  static constexpr std::array<Handler<Emit>, 256>
  make(std::index_sequence<Hs...>) {
    return {&fillThenRun<Emit>, &handle<Emit, uint8_t(Hs + 1)>...,
            &slowPath<Emit>};
  }
  static constexpr std::array<Handler<Emit>, 256> Handlers =
      make(std::make_index_sequence<handler::Slow - 1>());
};

/// The fault of fetching at an invalid PC (range before alignment), or
/// None.
StepFault pcFault(const MachineState &S) {
  if (!S.inRange(S.PC, 4))
    return StepFault::PcOutOfRange;
  if (!isAligned(S.PC, 4))
    return StepFault::PcMisaligned;
  return StepFault::None;
}

} // namespace

/// Reference fetch-decode-execute step: decodes afresh and runs the
/// handler of the decoded form.
template <class Emit>
static StepResult stepImpl(MachineState &State, IsaEnv &Env, Emit &E) {
  StepResult Out;
  if ((Out.Fault = pcFault(State)) != StepFault::None)
    return Out;
  Result<Instruction> Decoded = decode(State.readWord(State.PC));
  if (!Decoded) {
    Out.Fault = StepFault::IllegalInstruction;
    return Out;
  }
  DecodedInsn D;
  D.I = *Decoded;
  D.H = handlerIndex(D.I);
  Ctx<Emit> C{Env, nullptr, E, /*HaltStops=*/false};
  Out.Fault = Table<Emit>::Handlers[D.H](State, D, C);
  return Out;
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
/// here a step is the budget test, the stop-PC compare, one test that PC
/// is aligned and on the page whose slots the loop holds, and one
/// indirect call through the slot's handler byte.  A PC off that page
/// (or invalid) takes the slow refresh; an empty slot's handler fills
/// it; the halt self-jump, illegal words and I/O share the slow handler.
/// Hits are counted once, at the end.  \p HasStop and the emitter are
/// compile-time: with NullEmit the after-step hook vanishes, and without
/// a stop PC so does its compare; with JitEmit the block hook may run
/// the filled slot and what follows natively.  Each instantiation stays
/// its own function: inlined together into run(), they share one register
/// allocation, and with GCC -O3 on x86-64 the Isa-level loop spilled its
/// step counter and environment pointer to the stack (4–10% slower).
template <bool HasStop, class Emit>
[[gnu::noinline]] static RunResult
runImpl(MachineState &State, IsaEnv &Env, DecodeCache &Cache,
        uint64_t MaxSteps, Word StopPc, Emit &E) {
  Ctx<Emit> C{Env, &Cache, E, /*HaltStops=*/true};
  const uint64_t MissesBefore = Cache.stats().Misses;
  RunResult R;
  const DecodedInsn *Slots = nullptr;
  Word PageBase = 0;
  Word Limit = 0; // PC - PageBase below Limit: on the held page, in range
  StepFault F = StepFault::None;
  while (R.Steps < MaxSteps) {
    Word Pc = State.PC;
    if (HasStop && Pc == StopPc) {
      R.AtStopPc = true;
      break;
    }
    if ((Pc - PageBase >= Limit) | (Pc & 3)) {
      if ((R.Fault = pcFault(State)) != StepFault::None)
        break;
      PageBase = Pc & ~DecodeCache::PageMask;
      Slots = Cache.pageSlots(PageBase);
      // Slots whose whole word lies in memory.
      Limit = static_cast<Word>(std::min<size_t>(
          PageSize, (State.memSize() - PageBase) & ~size_t(3)));
    }
    const DecodedInsn *D = &Slots[(Pc - PageBase) >> 2];
    if constexpr (HasBlockHook<Emit>) {
      if (D->H == handler::Empty)
        D = &Cache.lookup(State, Pc);
      if (uint64_t N = E.Hook.enter(State, *D, MaxSteps - R.Steps)) {
        R.Steps += N;
        E.NativeTail += N - 1;
        continue;
      }
    }
    F = Table<Emit>::Handlers[D->H](State, *D, C);
    if (F != StepFault::None)
      break;
    ++R.Steps;
    E.afterStep(State);
  }
  // Every executed instruction, and the one that ended the run in a
  // handler, was one lookup; so was each block entry, but not the rest
  // of the block.
  uint64_t Lookups = R.Steps + (F != StepFault::None);
  if constexpr (HasBlockHook<Emit>)
    Lookups -= E.NativeTail;
  Cache.addHits(Lookups - (Cache.stats().Misses - MissesBefore));
  if (F == HaltSeen)
    R.Halted = true;
  else if (F != StepFault::None)
    R.Fault = F;
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

RunResult silver::isa::run(MachineState &State, IsaEnv &Env,
                           DecodeCache &Cache, uint64_t MaxSteps,
                           std::optional<Word> StopPc, BlockHook &Hook) {
  JitEmit E{{}, Hook};
  return runWith(State, Env, Cache, MaxSteps, StopPc, E);
}
