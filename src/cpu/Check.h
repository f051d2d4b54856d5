//===- cpu/Check.h - ISA/RTL correspondence and RTL runners -----*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The executable counterparts of the processor correctness theorems:
///
///  - CoreRunner: executes a memory image on the core, resumably, and
///    reports the observable behaviour (the hardware half of theorem
///    (8)).  It holds the simulator, the lab environment (whose DRAM is
///    a state instantiated from the boot snapshot), the cycle budget,
///    the FFI trace, and the observer hookup across multiple advance()
///    calls.  Its cycle loop is the one every hardware run goes through.
///
///  - checkIsaRtl: theorem (9) — every instruction cycle of the ISA is
///    simulated by some number of clock cycles of the implementation.
///    Advances a CoreRunner one retire at a time in lock-step with the
///    ISA interpreter, comparing the full architectural state (the
///    ag32_eq_* relation family) at every retire, and the memories at
///    the end.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_CPU_CHECK_H
#define SILVER_CPU_CHECK_H

#include "cpu/LabEnv.h"
#include "cpu/Sim.h"
#include "isa/Interp.h"

namespace silver {
namespace cpu {

/// Which implementation level to run: the circuit interpreter, or the
/// generated Verilog stepped by hdl::FastSim or by the core's linked
/// compiled simulator (see cpu::makeVerilogSim).
enum class SimLevel : uint8_t { Circuit, Verilog, VerilogCompiled };

struct RunOptions {
  SimLevel Level = SimLevel::Circuit;
  LabEnvOptions Env;
  /// Total clock-cycle budget of the run.
  uint64_t MaxCycles = 100'000'000ull;
  /// Receives retire / FFI / memory / cycle events; null runs silent.
  /// Not owned.
  obs::Observer *Obs = nullptr;
};

/// Wedge watchdog: a core that goes this many cycles without retiring a
/// single instruction is stuck in the memory/interrupt protocol (a
/// healthy transaction completes in a handful of cycles), and the runner
/// stops with CoreStop::NoRetireProgress instead of burning the whole
/// cycle budget.
inline constexpr uint64_t MaxCyclesWithoutRetire = 4096;

/// Why an advance() call returned.
enum class CoreStop : uint8_t {
  Halted,            ///< the halt self-loop retired; the run is over
  InstructionBudget, ///< this call's instruction quota was used up
  CycleBudget,       ///< the run's cycle budget was used up
  NoRetireProgress,  ///< wedge watchdog fired (see MaxCyclesWithoutRetire)
};

/// A resumable core execution: create once from a memory image, then
/// advance() any number of times with per-call instruction quotas under
/// one cycle budget (RunOptions::MaxCycles).
/// This is what lets stack::Executor pause, step, and enforce budgets at
/// the hardware levels.  Each retire that enters the syscall code
/// (next pc = SyscallCodeBase) records the call in trace()
/// (sys::recordFfiCall).
///
/// Event streams (when RunOptions::Obs is set): onCycle ticks come from
/// the simulator itself, onRetire carries the retire_pc and the decoded
/// opcode of the instruction word at that address, onMem reports the
/// core's DRAM transactions, and onFfi brackets time spent in the
/// installed syscall code (entry = retire at SyscallCodeBase, exit =
/// first retire outside the syscall-code region).
class CoreRunner {
public:
  /// Builds the core, validates it, and wires up the simulator, the lab
  /// environment over \p Dram (laid out as \p Layout), and the observer.
  /// The core starts in the architectural state of \p Dram (PC, flags,
  /// registers, data_out); for a bootable image that is the reset state,
  /// and the core runs its startup code.  The runner is heap-allocated
  /// and pinned because the simulator keeps a reference to the core.
  static Result<std::unique_ptr<CoreRunner>>
  create(isa::MachineState Dram, const sys::MemoryLayout &Layout,
         const RunOptions &Options);
  ~CoreRunner();

  CoreRunner(const CoreRunner &) = delete;
  CoreRunner &operator=(const CoreRunner &) = delete;

  /// Runs until the halt self-loop retires, \p MaxInstructions more
  /// instructions retire, the cycle budget runs out, or the wedge
  /// watchdog fires.  The quota is per-call; pass UINT64_MAX for "no
  /// limit".  Errors are environment protocol violations or simulator
  /// failures.
  Result<CoreStop> advance(uint64_t MaxInstructions);

  bool halted() const { return Halted; }
  uint64_t cycles() const { return Cycles; }
  uint64_t instructions() const { return Instructions; }

  /// The core's current architectural registers (PC, flags, register
  /// file).  Used by the cross-level state digests (stack::Executor).
  ArchState archState() const;
  /// The lab DRAM (same address space as the ISA state's memory, so
  /// final memories are directly comparable across levels).
  const isa::MachineState &memory() const { return Env.memory(); }
  /// Moves the lab DRAM out (to sys::recycle); the runner is spent.
  isa::MachineState takeMemory() { return Env.takeMemory(); }

  /// Terminal output the lab environment collected so far.
  const std::string &collectedStdout() const { return Env.collectedStdout(); }
  const std::string &collectedStderr() const { return Env.collectedStderr(); }
  /// The FFI calls made so far.
  const ffi::IoTrace &trace() const { return Trace; }

private:
  CoreRunner(isa::MachineState Dram, const sys::MemoryLayout &Layout,
             const RunOptions &Options);

  SilverCore Core;
  std::unique_ptr<CoreSim> Sim;
  LabEnv Env;
  sys::MemoryLayout Layout;
  RunOptions Opt;
  bool Halted = false;
  uint64_t Cycles = 0;
  uint64_t Instructions = 0;
  uint64_t CyclesSinceRetire = 0;
  bool InFfi = false;
  unsigned FfiIndex = 0;
  ffi::IoTrace Trace;
  CoreInputs Inputs;
  CoreOutputs Outputs;
};

/// Lock-step ISA/implementation check from an arbitrary initial machine
/// state.  \p Layout enables the interrupt-observables comparison (pass
/// the image layout for compiled programs; nullptr for random-program
/// tests that avoid Interrupt).  Stops at the ISA halt, when the core
/// retires its halt self-loop, after \p MaxInstructions, or at the
/// first disagreement (returned as an error naming the instruction
/// index and the differing component).  Running out of
/// Options.MaxCycles, or the wedge watchdog firing, is an error too.
Result<uint64_t> checkIsaRtl(const isa::MachineState &Initial,
                             uint64_t MaxInstructions,
                             const RunOptions &Options,
                             const sys::MemoryLayout *Layout);

} // namespace cpu
} // namespace silver

#endif // SILVER_CPU_CHECK_H
