//===- isa/Interp.h - The Silver ISA next-state function -------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Silver ISA operational semantics: a fetch-decode-execute next-state
/// function (the paper's `Next`, §4.1), plus the ALU shared between this
/// interpreter, the machine-sem layer, and the RTL core checker.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_ISA_INTERP_H
#define SILVER_ISA_INTERP_H

#include "isa/Encoding.h"
#include "isa/MachineState.h"
#include "obs/Observer.h"
#include "support/Result.h"

#include <optional>

namespace silver {
namespace isa {

/// The processor-external world as seen by the ISA: the Interrupt
/// notification interface and the In/Out data ports (paper §4.2's
/// is_interrupt_interface, reduced to its ISA-visible effect).
class IsaEnv {
public:
  virtual ~IsaEnv();

  /// Invoked when an Interrupt instruction executes; default: no effect.
  virtual void onInterrupt(MachineState &State);

  /// Value delivered by the In instruction; default 0.
  virtual Word inputWord(MachineState &State);

  /// Invoked when an Out instruction executes; default: no effect beyond
  /// the DataOut register.
  virtual void onOutput(MachineState &State, Word Value);
};

/// A no-op environment (useful for pure-computation tests).
IsaEnv &nullEnv();

/// ALU result: value plus the updated flags.
struct AluResult {
  Word Value = 0;
  bool Carry = false;
  bool Overflow = false;
  bool FlagsUpdated = false;
};

/// The Silver ALU (paper §4.1.1).  \p CarryIn/\p OverflowIn are the
/// current flag values (consumed by AddCarry/Carry/Overflow).
AluResult evalAlu(Func F, Word A, Word B, bool CarryIn, bool OverflowIn);

/// Test-only fault injection for the fuzzing self-check (DESIGN.md §9).
/// With the SILVER_FAULT_INJECTION build option (default ON), setting
/// InvertAddCarry flips the carry flag Add computes at the ISA and
/// machine-sem levels; the RTL core's ALU is an independent circuit and
/// is unaffected, so the differential oracle must surface the mutation
/// as a cross-level divergence.  When the option is OFF the flag is a
/// compile-time false and the check folds away.
namespace fault {
#if SILVER_FAULT_INJECTION
extern bool InvertAddCarry;
#else
inline constexpr bool InvertAddCarry = false;
#endif
} // namespace fault

/// Shift unit.
Word evalShift(ShiftKind K, Word A, Word B);

/// Why a step could not be taken.  These correspond to the Fail behaviour
/// of the paper's machine semantics; compiled programs never trigger them.
enum class StepFault : uint8_t {
  None,
  PcOutOfRange,
  PcMisaligned,
  IllegalInstruction,
  MemOutOfRange,
  MemMisaligned,
};

/// Outcome of one Next step.
struct StepResult {
  StepFault Fault = StepFault::None;
  bool ok() const { return Fault == StepFault::None; }
};

class DecodeCache;
struct DecodedInsn;

/// One step of the ISA semantics: fetch the word at PC, decode, execute.
StepResult step(MachineState &State, IsaEnv &Env);

/// Instrumented step: additionally emits the memory accesses and the
/// retirement (with \p RetireIndex) of this instruction to \p Obs.  All
/// steps and runs execute through the same instruction handlers
/// (isa/Interp.cpp), instantiated per observer; the uninstrumented ones
/// pay nothing for the hooks.
StepResult step(MachineState &State, IsaEnv &Env, obs::Observer &Obs,
                uint64_t RetireIndex);

/// Outcome of a run: exactly one of Halted / AtStopPc is set, or Fault is
/// non-None, or the step budget ran out (none set).
struct RunResult {
  uint64_t Steps = 0;    ///< instructions executed (none at StopPc)
  bool Halted = false;   ///< the halt self-jump was reached
  bool AtStopPc = false; ///< stopped with PC == StopPc, before executing
  StepFault Fault = StepFault::None;
};

/// The reference run: isHalted and step, repeated until the machine
/// halts (reaches the self-jump fixpoint), a fault occurs, or
/// \p MaxSteps instructions execute.
RunResult run(MachineState &State, IsaEnv &Env, uint64_t MaxSteps);

/// Observation hooks for an instrumented run.  All fields are optional;
/// a default-constructed ObsHooks makes run() behave exactly like an
/// uninstrumented run.
struct ObsHooks {
  obs::Observer *Obs = nullptr;
  /// Retirement index of the next instruction the run executes (lets a
  /// resumed run continue the event stream where it paused).
  uint64_t RetireIndexBase = 0;
  /// FFI-span closing: while a span is open (InFfi, for call FfiIndex),
  /// leaving [FfiRegionBegin, FfiRegionEnd) closes it.  The caller opens
  /// spans: the run has no notion of the syscall entry.  The state is
  /// carried across paused runs.
  Word FfiRegionBegin = 0;
  Word FfiRegionEnd = 0;
  bool InFfi = false;
  unsigned FfiIndex = 0;
};

/// The predecoded run loop, the one every execution backend runs: the
/// interpreter backend as it is, the JIT through the BlockHook overload
/// below.  One call through the cached slot's handler byte replaces the
/// fetch-decode pair of the reference loop (isHalted + step); the halt
/// self-jump has the slow handler, which ends the run.  Stops at halt,
/// fault, after \p MaxSteps instructions, or — when \p StopPc is set —
/// before executing the instruction at StopPc (the Isa and Machine
/// levels point it at the FFI trampoline, which costs one compare per
/// instruction).
///
/// With \p Hooks and Hooks->Obs set the run is instrumented: it emits
/// retire/memory/FFI events to Hooks->Obs and updates \p Hooks so a
/// subsequent call resumes the event stream (paper-faithful pause /
/// step-N execution for the stack::Executor API).  Whether to observe
/// (or to enter a block hook) and whether to test a stop PC are decided
/// once per call; each combination is its own instantiation of one loop
/// template, so the uninstrumented loop pays nothing for either.
RunResult run(MachineState &State, IsaEnv &Env, DecodeCache &Cache,
              uint64_t MaxSteps, std::optional<Word> StopPc = std::nullopt,
              ObsHooks *Hooks = nullptr);

/// A native tier inside the predecoded loop (the JIT, isa/jit/Jit.h);
/// the loop still decides steps, halts, faults and the stop PC.
class BlockHook {
public:
  virtual ~BlockHook();
  /// Before the handler, at a valid PC whose slot \p D is filled: runs
  /// up to \p Remaining (>= 1) instructions natively and returns how
  /// many; 0 means "execute this slot".
  virtual uint64_t enter(MachineState &State, const DecodedInsn &D,
                         uint64_t Remaining) = 0;
  /// A store of \p Size bytes at \p Addr hit a code page.
  virtual void stored(Word Addr, Word Size) = 0;
};

/// The unobserved run above with \p Hook entered before each instruction.
RunResult run(MachineState &State, IsaEnv &Env, DecodeCache &Cache,
              uint64_t MaxSteps, std::optional<Word> StopPc, BlockHook &Hook);

/// The paper's is_halted predicate: the instruction at PC is an
/// unconditional self-jump, so every further step leaves the ISA-visible
/// state unchanged (after the link register stabilises).
bool isHalted(const MachineState &State);

} // namespace isa
} // namespace silver

#endif // SILVER_ISA_INTERP_H
