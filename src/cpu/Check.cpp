//===- cpu/Check.cpp - ISA/RTL correspondence and RTL runners ----------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "cpu/Check.h"

#include "isa/Abi.h"
#include "isa/Encoding.h"
#include "support/StringUtils.h"

using namespace silver;
using namespace silver::cpu;

//===----------------------------------------------------------------------===//
// CoreRunner
//===----------------------------------------------------------------------===//

CoreRunner::CoreRunner(isa::MachineState Dram, const sys::MemoryLayout &Layout,
                       const RunOptions &Options)
    : Core(buildSilverCore()), Env(std::move(Dram), Layout, Options.Env),
      Layout(Layout), Opt(Options) {}

CoreRunner::~CoreRunner() = default;

Result<std::unique_ptr<CoreRunner>>
CoreRunner::create(isa::MachineState Dram, const sys::MemoryLayout &Layout,
                   const RunOptions &Options) {
  // Heap-allocate first: the simulator keeps a reference to this->Core.
  std::unique_ptr<CoreRunner> R(
      new CoreRunner(std::move(Dram), Layout, Options));
  if (Result<void> V = R->Core.Circuit.validate(); !V)
    return V.error();
  if (Options.Level == SimLevel::Circuit) {
    R->Sim = makeCircuitSim(R->Core);
  } else {
    Result<std::unique_ptr<CoreSim>> SimOr = makeVerilogSim(
        R->Core, Options.Level == SimLevel::VerilogCompiled);
    if (!SimOr)
      return SimOr.error();
    R->Sim = SimOr.take();
  }
  R->Sim->primeArchState(R->Env.memory());
  if (Options.Obs)
    R->Sim->attachCycleObserver(Options.Obs);
  return R;
}

Result<CoreStop> CoreRunner::advance(uint64_t MaxInstructions) {
  if (Halted)
    return CoreStop::Halted;
  obs::Observer *Obs = Opt.Obs;
  uint64_t InstrDone = 0;
  while (true) {
    if (InstrDone >= MaxInstructions)
      return CoreStop::InstructionBudget;
    if (Cycles >= Opt.MaxCycles)
      return CoreStop::CycleBudget;
    if (CyclesSinceRetire >= MaxCyclesWithoutRetire)
      return CoreStop::NoRetireProgress;

    Word PcBefore = Sim->archPc();
    Env.inputsForCycle(Inputs);
    if (Result<void> S = Sim->stepDense(Inputs, Outputs); !S)
      return S.error();
    if (Result<void> O = Env.observeOutputs(Outputs); !O)
      return O.error();
    ++Cycles;
    ++CyclesSinceRetire;

    if (Obs) {
      if (Outputs.MemRen) {
        // The fetch of the in-flight instruction reads at the arch pc;
        // MemEvent covers data accesses only, so filter it out to keep
        // the region-traffic buckets comparable with the ISA level.
        Word Addr = static_cast<Word>(Outputs.MemAddr);
        if (Addr != PcBefore) {
          obs::MemEvent Ev;
          Ev.Addr = Addr;
          Ev.Size = 4;
          Ev.IsWrite = false;
          Obs->onMem(Ev);
        }
      } else if (Outputs.MemWen) {
        obs::MemEvent Ev;
        Ev.Addr = static_cast<Word>(Outputs.MemAddr);
        Ev.Size = Outputs.MemWbyte ? 1 : 4;
        Ev.IsWrite = true;
        Obs->onMem(Ev);
      }
    }

    if (!Outputs.Retire)
      continue;
    CyclesSinceRetire = 0;
    // The core's retire_pc output is the *next* pc; the retired
    // instruction itself sits at the arch pc captured before the cycle
    // (the arch pc only advances on retire).
    Word NextPc = static_cast<Word>(Outputs.RetirePc);
    Word RetirePc = PcBefore;

    if (Obs) {
      obs::RetireEvent Ev;
      Ev.Pc = RetirePc;
      Ev.Index = Instructions;
      const isa::MachineState &M = Env.memory();
      if (M.inRange(RetirePc, 4)) {
        if (Result<isa::Instruction> I = isa::decode(M.readWord(RetirePc))) {
          Ev.Opcode = static_cast<uint8_t>(I->Op);
          Ev.Mnemonic = isa::opcodeName(I->Op);
        }
      }
      Obs->onRetire(Ev);

      // FFI spans: the installed syscall code occupies
      // [SyscallCodeBase, HeapBase); entry is a retire at its first
      // instruction, exit the first retire back outside it.
      if (Layout.SyscallCodeBase != 0) {
        if (!InFfi && RetirePc == Layout.SyscallCodeBase) {
          InFfi = true;
          FfiIndex = static_cast<unsigned>(
              Sim->archState().Regs[abi::FfiIndexReg]);
          Obs->onFfi({FfiIndex, true});
        } else if (InFfi && (RetirePc < Layout.SyscallCodeBase ||
                             RetirePc >= Layout.HeapBase)) {
          InFfi = false;
          Obs->onFfi({FfiIndex, false});
        }
      }
    }

    ++Instructions;
    ++InstrDone;
    if (NextPc == Layout.SyscallCodeBase && Layout.SyscallCodeBase != 0)
      sys::recordFfiCall(Trace, Sim->archState().Regs, Env.memory());
    if (NextPc == PcBefore) {
      // The halt self-loop: the machine will stay here forever.
      Halted = true;
      return CoreStop::Halted;
    }
  }
}

ArchState CoreRunner::archState() const { return Sim->archState(); }

Result<uint64_t> silver::cpu::checkIsaRtl(const isa::MachineState &Initial,
                                          uint64_t MaxInstructions,
                                          const RunOptions &Options,
                                          const sys::MemoryLayout *Layout) {
  Result<std::unique_ptr<CoreRunner>> RunnerOr = CoreRunner::create(
      Initial, Layout ? *Layout : sys::MemoryLayout{}, Options);
  if (!RunnerOr)
    return RunnerOr.error();
  CoreRunner &Core = **RunnerOr;

  // The ISA side: its own copy of the machine state and environment,
  // stepped by the reference semantics — isHalted and step, the paper's
  // Next — one retire at a time.
  isa::MachineState Isa = Initial;
  std::unique_ptr<sys::SysEnv> SysEnv;
  if (Layout)
    SysEnv = std::make_unique<sys::SysEnv>(*Layout);
  isa::IsaEnv &IsaEnv = SysEnv ? *SysEnv : isa::nullEnv();

  auto CompareArch = [&](uint64_t At) -> Result<void> {
    ArchState A = Core.archState();
    if (A.Pc != Isa.PC)
      return Error("instruction " + std::to_string(At) + ": PC " +
                   toHex(A.Pc) + " vs ISA " + toHex(Isa.PC));
    if (A.Carry != Isa.CarryFlag || A.Overflow != Isa.OverflowFlag)
      return Error("instruction " + std::to_string(At) + ": flags differ");
    for (unsigned I = 0; I != isa::NumRegs; ++I)
      if (A.Regs[I] != Isa.Regs[I])
        return Error("instruction " + std::to_string(At) + ": r" +
                     std::to_string(I) + " = " + toHex(A.Regs[I]) +
                     " vs ISA " + toHex(Isa.Regs[I]));
    if (A.DataOut != Isa.DataOut)
      return Error("instruction " + std::to_string(At) +
                   ": data_out differs");
    return {};
  };

  uint64_t Instructions = 0;
  while (Instructions < MaxInstructions && !Core.halted() &&
         !isa::isHalted(Isa)) {
    // One implementation retire corresponds to one ISA Next step.
    Result<CoreStop> Stop = Core.advance(1);
    if (!Stop)
      return Stop.error();
    if (*Stop == CoreStop::CycleBudget)
      return Error("cycle budget exhausted before instruction " +
                   std::to_string(Instructions));
    if (*Stop == CoreStop::NoRetireProgress)
      return Error("the core stopped retiring before instruction " +
                   std::to_string(Instructions));
    isa::StepResult S = isa::step(Isa, IsaEnv);
    if (!S.ok())
      return Error("ISA faulted at instruction " +
                   std::to_string(Instructions) +
                   " (the check covers fault-free programs)");
    ++Instructions;
    if (Result<void> C = CompareArch(Instructions); !C)
      return C.error();
  }

  // Memories must agree at the end (ag32_eq_* includes memory equality).
  if (Core.memory().Memory != Isa.Memory) {
    const isa::MemoryBytes &M = Core.memory().Memory;
    for (size_t I = 0; I != M.size(); ++I)
      if (M[I] != Isa.Memory[I])
        return Error("memory differs at " + toHex(static_cast<Word>(I)) +
                     " after " + std::to_string(Instructions) +
                     " instructions");
  }
  if (SysEnv) {
    if (Core.collectedStdout() != SysEnv->collectedStdout())
      return Error("collected stdout differs between levels");
    if (Core.collectedStderr() != SysEnv->collectedStderr())
      return Error("collected stderr differs between levels");
  }
  return Instructions;
}
