//===- stack/Executor.h - Observable execution engine -----------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The execution engine behind the stack API: prepare a program once,
/// then run it at any level of Figure 1 with a unified observer attached
/// (obs/Observer.h), instruction *and* cycle budgets enforced, and
/// run/pause/resume control.
///
///   stack::Executor Exec = stack::Executor::create(Spec).take();
///   obs::Counters Counters(Exec.regionMap().take(), Exec.ffiNames());
///   Exec.attach(&Counters);
///   stack::Outcome Out = Exec.run(stack::Level::Rtl).take();
///   std::cout << Counters.report();
///
/// Budgets: RunSpec::MaxSteps bounds retired instructions at every level;
/// the cycle-accurate levels additionally get RunSpec::MaxCycles clock
/// cycles (0 = derived as MaxSteps x 16, saturating) plus a wedge
/// watchdog (cpu::MaxCyclesWithoutRetire).  A budget running out is a
/// distinct RunStatus::Timeout, never a hang and never an error, and it
/// ends the program.  A caller that interrupts a run to resume it later
/// (svc::Service's time slices) steps with an instruction quota instead,
/// which returns RunStatus::Paused.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_STACK_EXECUTOR_H
#define SILVER_STACK_EXECUTOR_H

#include "isa/jit/Jit.h"
#include "obs/Observer.h"
#include "stack/Stack.h"

#include <array>
#include <memory>

namespace silver {
namespace stack {

/// Architectural snapshot of an execution session: PC, flags, the full
/// register file, and a hash of the whole memory.  This is the
/// cross-level comparison key of the fuzzing oracle (fuzz/Oracle.h): the
/// end-to-end theorem's levels must agree not only on stdout but on the
/// machine state they leave behind (the paper's ag32_eq relation family,
/// made cheap to compare by hashing the memory).
///
/// MemoryHash is the page hash of isa/PageMemory.h: each 4 KiB page is
/// hashed a 64-bit word at a time and the page hashes are folded in
/// address order.  Every session's memory — the ISA state, or the
/// Rtl/Verilog lab DRAM — is instantiated from the program's snapshot,
/// so a digest rehashes only the pages its page-state table marks
/// written and takes every other page's hash from the snapshot: the cost
/// follows the pages a run wrote, not the memory size.  One function
/// over one kind of memory, so digests compare exactly across levels.  A single changed byte anywhere in
/// memory always changes the hash.  The value differs from the
/// byte-wise FNV-1a of earlier versions; the journal and wire versions
/// were bumped with it (svc/cluster/Journal.h, svc/Protocol.h).
struct StateDigest {
  Word Pc = 0;
  bool Carry = false;
  bool Overflow = false;
  std::array<Word, isa::NumRegs> Regs{};
  uint64_t MemoryHash = 0; ///< isa::memoryHash of the full memory
  uint64_t MemoryBytes = 0;
};

inline bool operator==(const StateDigest &A, const StateDigest &B) {
  return A.Pc == B.Pc && A.Carry == B.Carry && A.Overflow == B.Overflow &&
         A.Regs == B.Regs && A.MemoryHash == B.MemoryHash &&
         A.MemoryBytes == B.MemoryBytes;
}
inline bool operator!=(const StateDigest &A, const StateDigest &B) {
  return !(A == B);
}

/// The observable execution engine.  Movable, not copyable.  An attached
/// observer sees, per run: onRunBegin, then retire / memory / FFI-span /
/// cycle events as the level produces them, then onRunEnd.  With no
/// observer attached every level runs its uninstrumented path, so a null
/// Executor run costs the same as the pre-redesign free functions.
class Executor {
public:
  /// Compiles Spec.Source once (every run/level reuses the result).
  static Result<Executor> create(RunSpec Spec);
  /// Wraps an already-prepared program (e.g. from stack::prepare).
  static Executor fromPrepared(RunSpec Spec, Prepared P);

  Executor(Executor &&) noexcept;
  Executor &operator=(Executor &&) noexcept;
  ~Executor();

  const RunSpec &spec() const { return Spec; }
  const Prepared &prepared() const { return Prep; }

  /// Attaches \p O (null detaches).  Not owned; must outlive every run.
  /// Use obs::MultiObserver to attach several sinks.
  void attach(obs::Observer *O) { Obs = O; }

  /// Figure-2 address classifier for this program's layout — pass to
  /// obs::Counters to bucket memory traffic by region.
  Result<obs::RegionMap> regionMap() const;

  /// Basis FFI call names in index order — pass to obs::Counters /
  /// obs::TraceSink to label FFI spans.
  static const std::vector<std::string> &ffiNames();

  /// The cycle budget the hardware levels run under: Spec.MaxCycles, or
  /// MaxSteps x 16 (saturating) when MaxCycles is 0.
  uint64_t cycleBudget() const;

  /// One-shot run at \p L to completion or budget exhaustion.
  Result<Outcome> run(Level L);

  // --- Resumable sessions (Machine / Isa / Rtl / Verilog) ---
  //
  //   begin(L); while (step(10'000) == Paused) {...}; finish();
  //
  // The Spec level has no machine steps and is not resumable.

  /// Starts a session at \p L and fires onRunBegin.  Every level starts
  /// from the program's snapshot (built here on first use when the
  /// Prepared has none), instantiated with this run's command line and
  /// stdin into pooled memory (sys::instantiate).  Machine and Isa then
  /// run the startup prefix and validate the installed state
  /// (sys::boot); at Rtl and Verilog the instantiated memory is the lab
  /// DRAM and the core runs the startup code from reset.  finish() hands the session's
  /// memory to sys::recycle.
  Result<void> begin(Level L);
  /// Runs at most \p MaxInstructions more instructions.  Completed and
  /// Timeout end the program but keep the session alive for finish().
  Result<RunStatus> step(uint64_t MaxInstructions);
  /// Collects the outcome, fires onRunEnd, and ends the session.
  Result<Outcome> finish();
  bool active() const { return Session != nullptr; }

  /// Instructions retired so far by the active session, in the same
  /// coordinate system as sessionBehaviour().Instructions (the ISA
  /// startup prefix included) — a journaled pause point taken from one
  /// can be replayed against the other.  Valid between begin() and
  /// finish().
  Result<uint64_t> sessionInstructions() const;

  /// Snapshots the observable behaviour of the active session so far
  /// (stdout/stderr prefix, instruction and cycle counts) without ending
  /// it — what a paused job reports in a status query.  Valid between
  /// begin() and finish().
  Result<Observed> sessionBehaviour() const;

  /// Snapshots the architectural state of the active session — valid
  /// between begin() and finish(), typically once step() reports
  /// Completed.  The Machine/Isa levels read the interpreter state; the
  /// hardware levels read the core's registers and the lab DRAM.  The
  /// Spec level has no machine state and is not supported.
  Result<StateDigest> sessionState() const;

  /// What the JIT did in the active session: blocks compiled and
  /// refused, invalidations, arena flushes, exits by kind and the
  /// instructions left to the interpreter.
  /// Valid between begin() and finish() of an Isa session on the Jit
  /// backend; an error at other levels and backends, and where the Jit
  /// degraded to the interpreter (isa::jit::hostSupported()).
  Result<isa::jit::JitStats> sessionJitStats() const;

  /// sessionState() computed from scratch: every page hashed, ignoring
  /// the page-state table and the snapshot's page hashes.  Equal to
  /// sessionState() by contract; it exists to check that contract.
  Result<StateDigest> sessionStateFromScratch() const;

  /// Per-level session state; internal.
  struct SessionBase;

private:
  Executor(RunSpec SpecIn, Prepared PrepIn);

  RunSpec Spec;
  Prepared Prep;
  obs::Observer *Obs = nullptr;
  std::unique_ptr<SessionBase> Session;
  uint64_t InstrBudgetLeft = 0;
  RunStatus LastStatus = RunStatus::Completed;
};

} // namespace stack
} // namespace silver

#endif // SILVER_STACK_EXECUTOR_H
