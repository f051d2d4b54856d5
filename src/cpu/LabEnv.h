//===- cpu/LabEnv.h - The lab-setup environment model -----------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The environment the Silver core runs in (paper §4.2's lab setup,
/// formally `is_lab_env`): a DRAM model with configurable latency
/// (is_mem), the memory pre-fill notification (is_mem_start_interface),
/// and the interrupt handler standing in for the ARM core's Python
/// script (is_interrupt_interface) — it reacts to interrupt requests by
/// reading the output buffer and collecting terminal output.
///
/// The DRAM is an isa::MachineState (only its memory and page-state
/// table are used): the paper's ag32_eq relations treat is_mem and the
/// ISA state's memory as one memory, and here they are one kind of
/// memory too.  Stores go through writeWord/writeByte, so they mark
/// their pages written; a DRAM instantiated from a boot snapshot
/// (sys::instantiate) therefore digests incrementally and recycles like
/// an ISA state.
///
/// Timing: a request pulse observed on the core's outputs at cycle N is
/// answered with a one-cycle ready pulse at cycle N+1+Latency.
/// mem_start_ready rises at cycle 2, and an interrupt request at cycle N
/// is acknowledged at cycle N+2.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_CPU_LABENV_H
#define SILVER_CPU_LABENV_H

#include "cpu/Sim.h"
#include "support/Result.h"
#include "sys/Image.h"

#include <string>

namespace silver {
namespace cpu {

struct LabEnvOptions {
  unsigned MemLatency = 1;  ///< extra wait cycles per memory transaction
};

class LabEnv {
public:
  LabEnv(isa::MachineState Dram, sys::MemoryLayout Layout,
         LabEnvOptions Options = {})
      : Dram(std::move(Dram)), Layout(std::move(Layout)), Opt(Options) {}

  /// Input-port values for the upcoming cycle, written into the dense
  /// frame.
  void inputsForCycle(CoreInputs &In);

  /// Reacts to the core's outputs of the cycle that just ran.  Returns an
  /// error on protocol violations (request while busy, misaligned word
  /// access, out-of-range address).
  Result<void> observeOutputs(const CoreOutputs &Out);

  /// The DRAM (same address space as the ISA state's memory).
  const isa::MachineState &memory() const { return Dram; }
  /// Moves the DRAM out (to sys::recycle); the environment is spent.
  isa::MachineState takeMemory() { return std::move(Dram); }
  const std::string &collectedStdout() const { return Stdout; }
  const std::string &collectedStderr() const { return Stderr; }

private:
  isa::MachineState Dram;
  sys::MemoryLayout Layout;
  LabEnvOptions Opt;
  uint64_t Cycle = 0;
  std::string Stdout;
  std::string Stderr;

  // Memory transaction in flight.
  bool MemBusy = false;
  unsigned MemRemaining = 0;
  bool MemIsWrite = false;
  bool MemIsByte = false;
  Word MemAddr = 0;
  Word MemWData = 0;
  bool ReadyNow = false;
  Word RData = 0;

  // Interrupt in flight.
  bool IntBusy = false;
  unsigned IntRemaining = 0;
  bool AckNow = false;
};

} // namespace cpu
} // namespace silver

#endif // SILVER_CPU_LABENV_H
