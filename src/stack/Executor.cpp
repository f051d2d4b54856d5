//===- stack/Executor.cpp - Observable execution engine ----------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "stack/Executor.h"

#include "cpu/Check.h"
#include "ffi/BasisFfi.h"
#include "isa/Abi.h"

#include <algorithm>

using namespace silver;
using namespace silver::stack;

/// The cycle budget derived from an instruction budget: a generous
/// cycles-per-instruction bound (the core retires one instruction every
/// few cycles; 16 leaves slack for memory latency), saturating.
static uint64_t cyclesFor(uint64_t Instructions) {
  constexpr uint64_t CyclesPerInstruction = 16;
  constexpr uint64_t Cap = UINT64_MAX / CyclesPerInstruction;
  return Instructions > Cap ? UINT64_MAX
                            : Instructions * CyclesPerInstruction;
}

static obs::ExecLevel toExecLevel(Level L) {
  switch (L) {
  case Level::Spec:
    return obs::ExecLevel::Spec;
  case Level::Machine:
    return obs::ExecLevel::Machine;
  case Level::Isa:
    return obs::ExecLevel::Isa;
  case Level::Rtl:
    return obs::ExecLevel::Rtl;
  case Level::Verilog:
    return obs::ExecLevel::Verilog;
  }
  return obs::ExecLevel::Spec;
}

//===----------------------------------------------------------------------===//
// Per-level sessions
//===----------------------------------------------------------------------===//

struct Executor::SessionBase {
  virtual ~SessionBase() = default;
  /// Runs at most \p MaxInstructions more instructions.  Completed means
  /// the program is over; Paused means the quota ran out first; Timeout
  /// means a level-internal budget (cycles, wedge watchdog) ran out.
  virtual Result<RunStatus> step(uint64_t MaxInstructions) = 0;
  /// Instructions retired so far (the Executor charges its global
  /// instruction budget from the deltas of this).
  virtual uint64_t instructions() const = 0;
  /// Snapshots the observable behaviour.
  virtual Observed collect() const = 0;
  /// The FFI calls made so far.
  virtual const ffi::IoTrace &trace() const = 0;
  /// Snapshots the architectural state (Executor::sessionState);
  /// \p FromScratch hashes every page (sessionStateFromScratch).
  virtual StateDigest digest(bool FromScratch) const = 0;
  /// The JIT's statistics when the session steps with the Jit backend,
  /// null otherwise.
  virtual const isa::jit::JitStats *jitStats() const { return nullptr; }
  /// Ends the session, handing its memory (the booted state, or the lab
  /// DRAM) to sys::recycle.
  virtual void recycle() = 0;
};

namespace {

/// The execution backend a session steps with.  Jit silently degrades
/// to the interpreter on unsupported hosts (the CLIs surface the
/// degradation as a diagnostic before the run starts).
std::unique_ptr<isa::ExecBackend> makeSessionBackend(const ExecOptions &E) {
  if (E.Backend == BackendKind::Jit && isa::jit::hostSupported()) {
    isa::jit::JitOptions Opts;
    if (E.JitHotThreshold)
      Opts.HotThreshold = E.JitHotThreshold;
    return isa::jit::makeJitBackend(Opts);
  }
  return isa::makeInterpBackend();
}

/// The digest of a state booted from \p Snap: pages the state marked
/// written are rehashed, the rest come from the snapshot.  A null \p Snap
/// hashes every page.
StateDigest digestOf(const isa::MachineState &S,
                     const sys::BootSnapshot *Snap) {
  StateDigest D;
  D.Pc = S.PC;
  D.Carry = S.CarryFlag;
  D.Overflow = S.OverflowFlag;
  D.Regs = S.Regs;
  D.MemoryHash =
      Snap ? isa::memoryHashOf(S.Memory.data(), S.Memory.size(),
                               S.PageFlags.data(), Snap->PageHashes.data())
           : isa::memoryHash(S.Memory.data(), S.Memory.size());
  D.MemoryBytes = S.Memory.size();
  return D;
}

/// Isa level: the Silver ISA Next function with the real system-call
/// code (sys::SysEnv reacting to Interrupt).  The startup prefix retires
/// under the observer too, so the retire stream lines up with the RTL
/// levels, which execute the startup code on the core from reset.
///
/// The backend runs in bursts that stop at the syscall entry (one stop
/// PC per session, so the Jit keeps its blocks), where the session
/// records the call, opens the observer's FFI span, and takes the entry
/// instruction, which stores nothing, with one reference step.
struct IsaSession final : Executor::SessionBase {
  sys::BootResult Boot;
  sys::SysEnv Env;
  isa::ObsHooks Hooks;
  /// Session-lifetime execution backend: a paused-and-resumed run keeps
  /// its derived state — decoded slots, and compiled blocks at the Jit
  /// backend (stores invalidate what they overwrite, so self-modifying
  /// code stays correct at every backend).
  std::unique_ptr<isa::ExecBackend> Backend;
  ffi::IoTrace Trace;
  uint64_t Steps = 0; ///< post-startup ISA steps
  bool Halted = false;

  IsaSession(sys::BootResult B, const ExecOptions &E, obs::Observer *Obs)
      : Boot(std::move(B)), Env(Boot.Layout),
        Backend(makeSessionBackend(E)) {
    Hooks.Obs = Obs;
    Hooks.RetireIndexBase = Boot.StartupSteps;
    Hooks.FfiRegionBegin = Boot.Layout.SyscallCodeBase;
    Hooks.FfiRegionEnd = Boot.Layout.HeapBase;
  }

  Result<RunStatus> step(uint64_t MaxInstructions) override {
    if (Halted)
      return RunStatus::Completed;
    isa::MachineState &State = Boot.State;
    for (uint64_t Start = Steps;;) {
      // The null-observer test happens once per call inside the
      // backend, not per retire: without an observer the predecoded
      // loop does no virtual dispatch at all.
      isa::RunResult R =
          Backend->run(State, Env, MaxInstructions - (Steps - Start),
                       Boot.Layout.SyscallCodeBase, &Hooks);
      Steps += R.Steps;
      if (R.AtStopPc) {
        sys::recordFfiCall(Trace, State.Regs, State);
        if (Hooks.Obs) {
          Hooks.InFfi = true;
          Hooks.FfiIndex = State.Regs[abi::FfiIndexReg];
          Hooks.Obs->onFfi({Hooks.FfiIndex, true});
        }
        R.Fault = (Hooks.Obs ? isa::step(State, Env, *Hooks.Obs,
                                         Hooks.RetireIndexBase++)
                             : isa::step(State, Env))
                      .Fault;
        Steps += R.Fault == isa::StepFault::None;
      }
      if (R.Fault != isa::StepFault::None)
        return Error("ISA execution faulted");
      if (!R.AtStopPc) {
        Halted = R.Halted;
        return Halted ? RunStatus::Completed : RunStatus::Paused;
      }
    }
  }

  // Matches collect().Instructions (startup prefix included): the
  // service journals one and replays against the other, so the two
  // counts must be the same coordinate system.
  uint64_t instructions() const override { return Steps + Boot.StartupSteps; }

  Observed collect() const override {
    Observed O;
    O.Terminated = Halted;
    O.Instructions = Steps + Boot.StartupSteps;
    O.StdoutData = Env.collectedStdout();
    O.StderrData = Env.collectedStderr();
    sys::ExitStatus S = sys::readExitStatus(Boot.State, Boot.Layout);
    O.ExitCode = S.Exited ? S.Code : 0;
    return O;
  }

  const ffi::IoTrace &trace() const override { return Trace; }

  const isa::jit::JitStats *jitStats() const override {
    return isa::jit::backendStats(*Backend);
  }

  StateDigest digest(bool FromScratch) const override {
    return digestOf(Boot.State, FromScratch ? nullptr : Boot.Snapshot.get());
  }

  void recycle() override { sys::recycle(std::move(Boot)); }
};

/// Machine level: machine_sem with the FFI interference oracle.  As in
/// the pre-redesign API, Instructions counts machine steps only (the
/// startup prefix runs unobserved before the semantics takes over), so
/// the observer's retire count matches Observed.Instructions.
struct MachineSession final : Executor::SessionBase {
  machine::MachineSem Sem;
  std::shared_ptr<const sys::BootSnapshot> Snapshot;
  uint64_t Steps = 0;
  machine::Behaviour Last;
  bool Done = false;

  MachineSession(sys::BootResult B, const RunSpec &Spec, obs::Observer *Obs)
      : Sem(std::move(B.State),
            ffi::BasisFfi(Spec.CommandLine,
                          ffi::Filesystem::withStdin(Spec.StdinData)),
            B.Layout, makeSessionBackend(Spec.Exec)),
        Snapshot(std::move(B.Snapshot)) {
    if (Obs)
      Sem.attachObserver(Obs);
  }

  Result<RunStatus> step(uint64_t MaxInstructions) override {
    if (Done)
      return RunStatus::Completed;
    machine::Behaviour B = Sem.run(MaxInstructions);
    Steps += B.Steps;
    if (B.Kind == machine::BehaviourKind::Failed)
      return Error(B.OracleRejected ? machine::OracleRejectedMessage
                                    : "execution failed");
    Last = B;
    Done = B.Kind == machine::BehaviourKind::Terminated;
    return Done ? RunStatus::Completed : RunStatus::Paused;
  }

  uint64_t instructions() const override { return Steps; }

  Observed collect() const override {
    Observed O;
    O.Terminated = Done;
    O.ExitCode = Last.ExitCode;
    O.Instructions = Steps;
    O.StdoutData = Sem.ffi().getStdout();
    O.StderrData = Sem.ffi().getStderr();
    return O;
  }

  const ffi::IoTrace &trace() const override { return Sem.ffi().Trace; }

  StateDigest digest(bool FromScratch) const override {
    return digestOf(Sem.state(), FromScratch ? nullptr : Snapshot.get());
  }

  void recycle() override {
    sys::recycle({Snapshot->Layout, std::move(Sem).takeState(), 0, Snapshot});
  }
};

/// Rtl / Verilog levels: the Silver core in the lab environment, driven
/// through the resumable cpu::CoreRunner, which also holds the cycle
/// budget and the wedge watchdog on top of the instruction budget.  The
/// lab DRAM is instantiated from the program's snapshot, so it digests
/// and recycles like the ISA state.
struct RtlSession final : Executor::SessionBase {
  std::unique_ptr<cpu::CoreRunner> Runner;
  std::shared_ptr<const sys::BootSnapshot> Snapshot;

  RtlSession(std::unique_ptr<cpu::CoreRunner> R,
             std::shared_ptr<const sys::BootSnapshot> Snap)
      : Runner(std::move(R)), Snapshot(std::move(Snap)) {}

  Result<RunStatus> step(uint64_t MaxInstructions) override {
    Result<cpu::CoreStop> S = Runner->advance(MaxInstructions);
    if (!S)
      return S.error();
    switch (*S) {
    case cpu::CoreStop::Halted:
      return RunStatus::Completed;
    case cpu::CoreStop::InstructionBudget:
      return RunStatus::Paused;
    case cpu::CoreStop::CycleBudget:
    case cpu::CoreStop::NoRetireProgress:
      return RunStatus::Timeout;
    }
    return RunStatus::Paused;
  }

  uint64_t instructions() const override { return Runner->instructions(); }

  Observed collect() const override {
    Observed O;
    O.Terminated = Runner->halted();
    O.Cycles = Runner->cycles();
    O.Instructions = Runner->instructions();
    O.StdoutData = Runner->collectedStdout();
    O.StderrData = Runner->collectedStderr();
    sys::ExitStatus S =
        sys::readExitStatus(Runner->memory(), Snapshot->Layout);
    O.ExitCode = S.Exited ? S.Code : 0;
    return O;
  }

  const ffi::IoTrace &trace() const override { return Runner->trace(); }

  // The memory half from the lab DRAM, the architectural half from the
  // core.
  StateDigest digest(bool FromScratch) const override {
    StateDigest D = digestOf(Runner->memory(),
                             FromScratch ? nullptr : Snapshot.get());
    cpu::ArchState A = Runner->archState();
    D.Pc = A.Pc;
    D.Carry = A.Carry;
    D.Overflow = A.Overflow;
    D.Regs = A.Regs;
    return D;
  }

  void recycle() override {
    sys::recycle({Snapshot->Layout, Runner->takeMemory(), 0, Snapshot});
  }
};

} // namespace

//===----------------------------------------------------------------------===//
// Executor
//===----------------------------------------------------------------------===//

Executor::Executor(RunSpec SpecIn, Prepared PrepIn)
    : Spec(std::move(SpecIn)), Prep(std::move(PrepIn)) {}

Executor::Executor(Executor &&) noexcept = default;
Executor &Executor::operator=(Executor &&) noexcept = default;
Executor::~Executor() = default;

Result<Executor> Executor::create(RunSpec Spec) {
  Result<Prepared> P = prepare(Spec);
  if (!P)
    return P.error();
  return Executor(std::move(Spec), P.take());
}

Executor Executor::fromPrepared(RunSpec Spec, Prepared P) {
  return Executor(std::move(Spec), std::move(P));
}

Result<obs::RegionMap> Executor::regionMap() const {
  Result<sys::MemoryLayout> L = sys::MemoryLayout::compute(
      Prep.Image.Params, static_cast<Word>(Prep.Image.Program.size()));
  if (!L)
    return L.error();
  obs::RegionMap M;
  M.add(L->StartupBase, L->DescriptorBase, obs::Region::Startup);
  M.add(L->DescriptorBase, L->CmdlineBase, obs::Region::Descriptor);
  M.add(L->CmdlineBase, L->StdinBase, obs::Region::Cmdline);
  M.add(L->StdinBase, L->OutBufBase, obs::Region::Stdin);
  M.add(L->OutBufBase, L->SyscallIdAddr, obs::Region::OutBuf);
  M.add(L->SyscallIdAddr, L->HeapBase, obs::Region::SyscallCode);
  M.add(L->HeapBase, L->HeapEnd, obs::Region::Heap);
  M.add(L->CodeBase, L->Params.MemSize, obs::Region::Code);
  return M;
}

const std::vector<std::string> &Executor::ffiNames() {
  return ffi::BasisFfi::callNames();
}

uint64_t Executor::cycleBudget() const {
  if (Spec.Exec.MaxCycles)
    return Spec.Exec.MaxCycles;
  return cyclesFor(Spec.Exec.MaxSteps);
}

Result<void> Executor::begin(Level L) {
  if (Session)
    return Error("an execution session is already active");
  if (L == Level::Spec)
    return Error("the spec level has no machine steps; use run()");

  InstrBudgetLeft = Spec.Exec.MaxSteps;
  LastStatus = RunStatus::Paused;
  if (Obs)
    Obs->onRunBegin(toExecLevel(L));
  // Balance onRunBegin even when session setup fails.
  auto Fail = [&](const Error &E) -> Result<void> {
    if (Obs)
      Obs->onRunEnd();
    return E;
  };

  // Every level starts from the program's snapshot.
  if (!Prep.Snapshot) {
    Result<sys::BootSnapshot> S =
        sys::buildSnapshot(Prep.Image.Program, Prep.Image.Params);
    if (!S)
      return Fail(S.error());
    Prep.Snapshot = std::make_shared<const sys::BootSnapshot>(S.take());
  }

  switch (L) {
  case Level::Isa: {
    Result<sys::BootResult> B = sys::boot(Prep.Snapshot, Prep.Image, Obs);
    if (!B)
      return Fail(B.error());
    Session = std::make_unique<IsaSession>(B.take(), Spec.Exec, Obs);
    break;
  }
  case Level::Machine: {
    Result<sys::BootResult> B = sys::boot(Prep.Snapshot, Prep.Image);
    if (!B)
      return Fail(B.error());
    Session = std::make_unique<MachineSession>(B.take(), Spec, Obs);
    break;
  }
  case Level::Rtl:
  case Level::Verilog: {
    // The DRAM holds the init state; the core runs the startup code.
    Result<sys::BootResult> Dram =
        sys::instantiate(Prep.Snapshot, Prep.Image);
    if (!Dram)
      return Fail(Dram.error());
    cpu::RunOptions Options;
    Options.Level = L == Level::Rtl ? cpu::SimLevel::Circuit
                    : Spec.Exec.Hdl == HdlBackendKind::Compiled
                        ? cpu::SimLevel::VerilogCompiled
                        : cpu::SimLevel::Verilog;
    Options.MaxCycles = cycleBudget();
    Options.Obs = Obs;
    Result<std::unique_ptr<cpu::CoreRunner>> Runner = cpu::CoreRunner::create(
        std::move(Dram->State), Dram->Layout, Options);
    if (!Runner)
      return Fail(Runner.error());
    Session = std::make_unique<RtlSession>(Runner.take(), Prep.Snapshot);
    break;
  }
  case Level::Spec:
    break; // unreachable; rejected above
  }
  return {};
}

Result<RunStatus> Executor::step(uint64_t MaxInstructions) {
  if (!Session)
    return Error("no active execution session: call begin() first");
  if (LastStatus != RunStatus::Paused)
    return LastStatus; // over; finish() collects the outcome

  uint64_t Quota = std::min(MaxInstructions, InstrBudgetLeft);
  uint64_t Before = Session->instructions();
  Result<RunStatus> S = Session->step(Quota);
  if (!S) {
    // A fault ends the session; balance the observer stream.
    if (Obs)
      Obs->onRunEnd();
    Session.reset();
    return S.error();
  }
  uint64_t Used = Session->instructions() - Before;
  InstrBudgetLeft -= std::min(Used, InstrBudgetLeft);
  LastStatus = *S;
  if (LastStatus == RunStatus::Paused && InstrBudgetLeft == 0)
    LastStatus = RunStatus::Timeout; // the global budget, not the quota
  return LastStatus;
}

Result<StateDigest> Executor::sessionState() const {
  if (!Session)
    return Error("no active execution session: call begin() first");
  return Session->digest(false);
}

Result<StateDigest> Executor::sessionStateFromScratch() const {
  if (!Session)
    return Error("no active execution session: call begin() first");
  return Session->digest(true);
}

Result<isa::jit::JitStats> Executor::sessionJitStats() const {
  if (!Session)
    return Error("no active execution session: call begin() first");
  const isa::jit::JitStats *Stats = Session->jitStats();
  if (!Stats)
    return Error("the session does not run on the jit backend");
  return *Stats;
}

Result<uint64_t> Executor::sessionInstructions() const {
  if (!Session)
    return Error("no active execution session: call begin() first");
  return Session->instructions();
}

Result<Observed> Executor::sessionBehaviour() const {
  if (!Session)
    return Error("no active execution session: call begin() first");
  return Session->collect();
}

Result<Outcome> Executor::finish() {
  if (!Session)
    return Error("no active execution session: call begin() first");
  Outcome Out;
  Out.Status = LastStatus;
  Out.Behaviour = Session->collect();
  Out.Trace = Session->trace();
  if (Obs)
    Obs->onRunEnd();
  Session->recycle();
  Session.reset();
  return Out;
}

Result<Outcome> Executor::run(Level L) {
  if (L == Level::Spec) {
    // The reference interpreter: no machine steps, a single observable
    // behaviour.  Bracketed so counters/traces still see the run.
    if (Obs)
      Obs->onRunBegin(obs::ExecLevel::Spec);
    Result<Outcome> R = runSpecLevel(Spec);
    if (Obs)
      Obs->onRunEnd();
    return R;
  }
  if (Result<void> B = begin(L); !B)
    return B.error();
  if (Result<RunStatus> S = step(UINT64_MAX); !S)
    return S.error(); // step() already tore the session down
  return finish();
}
