//===- machine/MachineSem.h - CakeML's target machine semantics -*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's machine_sem (§5): repeated application of the Silver ISA's
/// Next function, except that when execution reaches an entry point to
/// external code (an FFI call), the semantics consults the interference
/// oracle — here the basis FFI model — to determine the resulting machine
/// state.  The oracle's effect on the state is prescribed by ffi_interfer:
/// it writes the returned bytes to the shared array, restores the PC to
/// the return address, leaves CakeML-private state unchanged, and updates
/// the book-keeping memory used by the external call.
///
/// This is the *specification-level* execution: system calls happen by
/// oracle, not by machine code.  The ISA-level execution (sys::SysEnv +
/// isa::run) runs the real system-call code; machine::checkInterferenceImpl
/// verifies the two agree (the paper's theorems (11)-(13)).
///
/// Between oracle consultations the semantics runs the ISA through one
/// isa::ExecBackend it holds by value: the interpreter, or the JIT when
/// the backend was built with one.  Every oracle write is reported to
/// that backend, which is what keeps its decoded slots and compiled
/// blocks exact.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_MACHINE_MACHINESEM_H
#define SILVER_MACHINE_MACHINESEM_H

#include "ffi/BasisFfi.h"
#include "isa/ExecBackend.h"
#include "isa/Interp.h"
#include "sys/Image.h"

namespace silver {
namespace machine {

/// Exit code compiled programs use when the heap is exhausted: the
/// extend_with_oom behaviour of the compiler correctness theorem.
inline constexpr uint8_t OomExitCode = 2;

/// Machine behaviours (paper §2.3): Terminate with an exit code (Success
/// = code 0; OomExitCode is the permitted out-of-memory prefix
/// behaviour), Fail for ISA faults, or still running after the step
/// budget.
enum class BehaviourKind : uint8_t {
  Terminated,
  Failed,
  OutOfSteps,
};

/// The error message a Failed run carries when the failure is the
/// interference oracle rejecting an ill-formed FFI call state (bad call
/// index, argument arrays out of range, or a basis call whose
/// preconditions do not hold).  The paper's ffi_interfer is specified
/// only for well-formed call states — the hand-written syscall code is
/// verified against it on exactly that domain — so consumers comparing
/// machine_sem against levels that run the real syscall code (the fuzz
/// oracle) treat this failure as "outside the modeled domain" rather
/// than as a semantic divergence.  Like every level error it does not
/// name the level; the caller does.
inline constexpr const char *OracleRejectedMessage =
    "FFI call outside the oracle's well-formed domain";

struct Behaviour {
  BehaviourKind Kind = BehaviourKind::OutOfSteps;
  uint8_t ExitCode = 0;
  isa::StepFault Fault = isa::StepFault::None;
  uint64_t Steps = 0;
  /// True when Kind == Failed because the interference oracle rejected
  /// an ill-formed FFI call (see OracleRejectedMessage).
  bool OracleRejected = false;

  bool terminatedSuccessfully() const {
    return Kind == BehaviourKind::Terminated && ExitCode == 0;
  }
  bool terminatedWithOom() const {
    return Kind == BehaviourKind::Terminated && ExitCode == OomExitCode;
  }
};

/// Applies the interference-oracle step for FFI call \p Index to \p State:
/// the paper's ffi_interfer function.  \p ResultBytes are the bytes the
/// oracle returned; \p FfiAfter is the oracle state after the call (used
/// for the in-memory book-keeping: the stdin offset cell, the output
/// buffer, the called-id cell).  Clobbered scratch registers are set to
/// zero — compiled code never reads them across a call.  The oracle
/// writes memory behind the execution backend's back, so the backend
/// running this state must drop every derived artifact (decoded slots,
/// compiled blocks) over the written ranges: pass it as \p Backend
/// (null when execution holds no derived state).
void applyFfiInterfer(isa::MachineState &State,
                      const sys::MemoryLayout &Layout, unsigned Index,
                      const std::vector<uint8_t> &ResultBytes,
                      const ffi::BasisFfi &FfiAfter,
                      isa::ExecBackend *Backend = nullptr);

/// The machine semantics: steps \p State with \p Ffi as the interference
/// oracle for FFI calls (detected as the PC reaching the system-call
/// entry point).  On an "exit" call, terminates with the code.
class MachineSem {
public:
  /// \p Backend is the ISA execution backend the semantics steps with
  /// (isa/ExecBackend.h); the default interprets.  The oracle arm
  /// notifies it of every interference write, so a backend with a JIT
  /// stays exact across FFI boundaries.
  MachineSem(isa::MachineState State, ffi::BasisFfi Ffi,
             sys::MemoryLayout Layout,
             isa::ExecBackend Backend = isa::ExecBackend())
      : State(std::move(State)), Ffi(std::move(Ffi)),
        Layout(std::move(Layout)), Backend(std::move(Backend)) {}

  /// Runs for at most \p MaxSteps ISA steps (oracle steps count as one).
  /// A paused run resumes where the previous call stopped.
  Behaviour run(uint64_t MaxSteps);

  /// Streams retire/memory events for every ISA step and an FFI span for
  /// every oracle consultation to \p O (null detaches; not owned).  The
  /// uninstrumented path is unchanged.
  void attachObserver(obs::Observer *O) {
    Hooks.Obs = O;
    Ffi.attachObserver(O);
  }

  const isa::MachineState &state() const { return State; }
  /// The backend the semantics steps with (its decode and JIT
  /// statistics).
  const isa::ExecBackend &backend() const { return Backend; }
  /// Ends the semantics, handing its state back (sys::boot recycles it).
  isa::MachineState takeState() && { return std::move(State); }
  const ffi::BasisFfi &ffi() const { return Ffi; }
  Behaviour LastBehaviour;

private:
  /// The oracle-consultation arm of run (PC at the FFI entry):
  /// validates the call registers, runs the interference oracle, applies
  /// ffi_interfer.  Returns false on Failed/Terminated.
  bool oracleStep();

  isa::MachineState State;
  ffi::BasisFfi Ffi;
  sys::MemoryLayout Layout;
  /// The observer and the retire index of the next ISA step; FFI-span
  /// detection stays off (the oracle reports the spans).
  isa::ObsHooks Hooks;
  /// The ISA execution backend; owns all derived execution state
  /// (decode cache, compiled blocks) and is kept valid across
  /// interpreter stores and oracle interference writes.
  isa::ExecBackend Backend;
};

} // namespace machine
} // namespace silver

#endif // SILVER_MACHINE_MACHINESEM_H
