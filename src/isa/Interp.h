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

namespace silver {
namespace isa {

/// The processor-external world as seen by the ISA: the Interrupt
/// notification interface and the In/Out data ports (paper §4.2's
/// is_interrupt_interface, reduced to its ISA-visible effect).
class IsaEnv {
public:
  virtual ~IsaEnv();

  /// Invoked when an Interrupt instruction executes.  The returned bytes
  /// are recorded in the IO-event trace as the observable part of memory
  /// (see IoEvent).  The default returns no bytes.
  virtual std::vector<uint8_t> onInterrupt(MachineState &State);

  /// Value delivered by the In instruction; default 0.
  virtual Word inputWord(MachineState &State);

  /// Invoked when an Out instruction executes; default: no effect beyond
  /// the DataOut register and the trace entry the interpreter records.
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

/// One step of the ISA semantics: fetch the word at PC, decode, execute.
StepResult step(MachineState &State, IsaEnv &Env);

/// Predecoded step (isa/DecodeCache.h): semantically identical, but the
/// decode comes from \p Cache and stores invalidate the slots they
/// overwrite, so self-modifying code matches the reference semantics.
StepResult step(MachineState &State, IsaEnv &Env, DecodeCache &Cache);

/// Instrumented step: additionally emits the memory accesses and the
/// retirement (with \p RetireIndex) of this instruction to \p Obs.  Both
/// overloads are compiled from the same template; the uninstrumented one
/// pays nothing for the hooks.
StepResult step(MachineState &State, IsaEnv &Env, obs::Observer &Obs,
                uint64_t RetireIndex);

/// Instrumented predecoded step.
StepResult step(MachineState &State, IsaEnv &Env, obs::Observer &Obs,
                uint64_t RetireIndex, DecodeCache &Cache);

/// Result of a fused halt-check-and-step (see stepUnlessHalted).
struct HaltOrStep {
  bool Halted = false;
  StepResult S;
};

/// The is_halted test and the step the reference loop performs
/// back-to-back, fused over a single cache lookup: if the instruction at
/// PC is the halt self-jump, returns Halted without stepping; otherwise
/// executes it.  machine::MachineSem's per-step loop is built on this.
HaltOrStep stepUnlessHalted(MachineState &State, IsaEnv &Env,
                            DecodeCache &Cache);
HaltOrStep stepUnlessHalted(MachineState &State, IsaEnv &Env,
                            obs::Observer &Obs, uint64_t RetireIndex,
                            DecodeCache &Cache);

/// Outcome of runUntilPc: exactly one of AtStopPc / Halted is set, or
/// Fault is non-None, or the step budget ran out (none set).
struct RunStopResult {
  uint64_t Steps = 0;    ///< instructions executed (none at StopPc)
  bool AtStopPc = false; ///< stopped with PC == StopPc, before executing
  bool Halted = false;   ///< the halt self-jump was reached
  StepFault Fault = StepFault::None;
};

/// Predecoded run that additionally stops — before executing — whenever
/// PC equals \p StopPc.  machine::MachineSem points StopPc at the FFI
/// trampoline so its uninstrumented run is one tight loop with a single
/// extra compare per instruction, instead of a cross-call per step.
RunStopResult runUntilPc(MachineState &State, IsaEnv &Env, uint64_t MaxSteps,
                         Word StopPc, DecodeCache &Cache);

/// Runs until the machine halts (reaches the self-jump fixpoint), a fault
/// occurs, or \p MaxSteps instructions execute.
struct RunResult {
  uint64_t Steps = 0;
  bool Halted = false;
  StepFault Fault = StepFault::None;
};
RunResult run(MachineState &State, IsaEnv &Env, uint64_t MaxSteps);

/// Predecoded run loop: one cache lookup per instruction replaces the
/// fetch-decode pair the reference loop performs (isHalted + step), with
/// the halt test reduced to the entry's self-jump flag.
RunResult run(MachineState &State, IsaEnv &Env, uint64_t MaxSteps,
              DecodeCache &Cache);

/// Observation hooks for an instrumented run.  All fields are optional;
/// a default-constructed ObsHooks makes run() behave exactly like the
/// plain overload.
struct ObsHooks {
  obs::Observer *Obs = nullptr;
  /// Retirement index of the first instruction this run executes (lets a
  /// resumed run continue the event stream where it paused).
  uint64_t RetireIndexBase = 0;
  /// FFI-span detection: entering \p FfiEntryPc opens a span for the call
  /// index in register abi::FfiIndexReg; leaving [FfiRegionBegin,
  /// FfiRegionEnd) closes it.  All-zero disables detection.
  Word FfiEntryPc = 0;
  Word FfiRegionBegin = 0;
  Word FfiRegionEnd = 0;
  /// True when an FFI span is open (carried across paused runs).
  bool InFfi = false;
  unsigned FfiIndex = 0;
};

/// Instrumented run: emits retire/memory/FFI events to Hooks.Obs.  With a
/// null observer this is exactly the plain run().  \p Hooks is updated so
/// a subsequent call resumes the event stream (paper-faithful pause /
/// step-N execution for the stack::Executor API).
RunResult run(MachineState &State, IsaEnv &Env, uint64_t MaxSteps,
              ObsHooks &Hooks);

/// Instrumented predecoded run: the Hooks overload above with a caller-
/// owned cache (a session that pauses and resumes keeps its predecode
/// work across calls).
RunResult run(MachineState &State, IsaEnv &Env, uint64_t MaxSteps,
              ObsHooks &Hooks, DecodeCache &Cache);

/// The paper's is_halted predicate: the instruction at PC is an
/// unconditional self-jump, so every further step leaves the ISA-visible
/// state unchanged (after the link register stabilises).
bool isHalted(const MachineState &State);

/// Predecoded is_halted: the self-jump test is the cached flag.  A fill
/// marks the page code (isa/DecodeCache.h), hence the mutable state.
bool isHalted(MachineState &State, DecodeCache &Cache);

} // namespace isa
} // namespace silver

#endif // SILVER_ISA_INTERP_H
