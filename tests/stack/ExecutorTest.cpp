//===- tests/stack/ExecutorTest.cpp - observable execution engine tests --------===//
//
// The redesigned stack API: cross-level retire-stream equality (the
// event-level strengthening of the end-to-end theorem — the ISA and the
// circuit retire the *same pc+opcode sequence*, not just the same final
// stdout), observer-neutrality (attaching a null observer changes
// nothing observable), deterministic counters, budget Timeouts instead
// of hangs, and pause/resume sessions.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Corpus.h"
#include "fuzz/Oracle.h"
#include "obs/Counters.h"
#include "obs/TraceSink.h"
#include "stack/Apps.h"
#include "stack/Executor.h"
#include "stack/PrepareCache.h"

#include <gtest/gtest.h>

#include <array>
#include <memory>

using namespace silver;
using namespace silver::stack;

namespace {

RunSpec helloSpec() {
  RunSpec Spec;
  Spec.Source = helloSource();
  Spec.Exec.MaxSteps = 100'000'000;
  return Spec;
}

void expectSameObserved(const Observed &A, const Observed &B,
                        bool CompareInstructions = true) {
  EXPECT_EQ(A.StdoutData, B.StdoutData);
  EXPECT_EQ(A.StderrData, B.StderrData);
  EXPECT_EQ(A.ExitCode, B.ExitCode);
  EXPECT_EQ(A.Terminated, B.Terminated);
  if (CompareInstructions) {
    EXPECT_EQ(A.Instructions, B.Instructions);
  }
}

// Runs Spec at Isa and Rtl with a TraceSink each and requires the
// pc+opcode retirement sequences to be equal.  The circuit retires the
// final halt self-jump (that is how it signals halt) where the ISA
// interpreter stops *at* it, so the RTL stream is exactly one retire
// longer; trim it before comparing.
void expectRetireStreamsEqual(const RunSpec &Spec) {
  Result<Executor> ExecOr = Executor::create(Spec);
  ASSERT_TRUE(ExecOr) << ExecOr.error().str();
  Executor Exec = ExecOr.take();

  obs::TraceSink IsaSink, RtlSink;
  Exec.attach(&IsaSink);
  Result<Outcome> Isa = Exec.run(Level::Isa);
  ASSERT_TRUE(Isa) << Isa.error().str();
  ASSERT_EQ(Isa->Status, RunStatus::Completed);

  Exec.attach(&RtlSink);
  Result<Outcome> Rtl = Exec.run(Level::Rtl);
  ASSERT_TRUE(Rtl) << Rtl.error().str();
  ASSERT_EQ(Rtl->Status, RunStatus::Completed);

  // The circuit counts its extra halt retire in Instructions too.
  expectSameObserved(Isa->Behaviour, Rtl->Behaviour,
                     /*CompareInstructions=*/false);
  EXPECT_EQ(Rtl->Behaviour.Instructions, Isa->Behaviour.Instructions + 1);

  std::vector<std::pair<Word, uint8_t>> IsaStream = IsaSink.retireStream();
  std::vector<std::pair<Word, uint8_t>> RtlStream = RtlSink.retireStream();
  ASSERT_EQ(RtlStream.size(), IsaStream.size() + 1);
  RtlStream.pop_back();
  ASSERT_EQ(IsaStream.size(), RtlStream.size());
  for (size_t I = 0; I != IsaStream.size(); ++I) {
    ASSERT_EQ(IsaStream[I].first, RtlStream[I].first)
        << "pc diverges at retirement " << I;
    ASSERT_EQ(IsaStream[I].second, RtlStream[I].second)
        << "opcode diverges at retirement " << I;
  }
}

} // namespace

TEST(Executor, RetireStreamEqualHello) {
  expectRetireStreamsEqual(helloSpec());
}

TEST(Executor, RetireStreamEqualWc) {
  RunSpec Spec;
  Spec.Source = wcSource();
  Spec.CommandLine = {"wc"};
  Spec.StdinData = "alpha beta\ngamma\n";
  Spec.Exec.MaxSteps = 100'000'000;
  expectRetireStreamsEqual(Spec);
}

TEST(Executor, RetireStreamEqualSort) {
  RunSpec Spec;
  Spec.Source = sortSource();
  Spec.StdinData = "pear\napple\nzebra\nmango\n";
  Spec.Exec.MaxSteps = 400'000'000;
  expectRetireStreamsEqual(Spec);
}

TEST(Executor, NullObserverIsBehaviourNeutral) {
  // The zero-cost-when-null claim, behavioural half: an Executor with no
  // observer must produce exactly the Observed of an instrumented run.
  Result<Executor> ExecOr = Executor::create(helloSpec());
  ASSERT_TRUE(ExecOr) << ExecOr.error().str();
  Executor Exec = ExecOr.take();

  for (Level L : {Level::Machine, Level::Isa, Level::Rtl}) {
    Result<Outcome> Null = Exec.run(L);
    ASSERT_TRUE(Null) << Null.error().str();

    obs::Counters Counters(Exec.regionMap().take(), Executor::ffiNames());
    Exec.attach(&Counters);
    Result<Outcome> Observed = Exec.run(L);
    Exec.attach(nullptr);
    ASSERT_TRUE(Observed) << Observed.error().str();

    expectSameObserved(Null->Behaviour, Observed->Behaviour);
    EXPECT_EQ(Null->Behaviour.Cycles, Observed->Behaviour.Cycles);
    // The counters agree with the Observed the API reports.  At the
    // machine level FFI calls are oracle steps, not retirements, so the
    // retire count plus the call count makes up the step count.
    uint64_t FfiCalls = 0;
    for (const obs::Counters::FfiCost &C : Counters.Ffi)
      FfiCalls += C.Calls;
    if (L == Level::Machine)
      EXPECT_EQ(Counters.Retired + FfiCalls,
                Observed->Behaviour.Instructions);
    else
      EXPECT_EQ(Counters.Retired, Observed->Behaviour.Instructions);
    EXPECT_EQ(Counters.Cycles, Observed->Behaviour.Cycles);
  }
}

namespace {

/// What a completed session leaves: its Observed, its final StateDigest,
/// and its retire count — the observer's retirements (plus the oracle's
/// FFI calls at Machine, which are steps but not retirements) for an
/// observed run, Observed.Instructions for a null one.
struct SessionEnd {
  Observed Behaviour;
  ffi::IoTrace Trace;
  StateDigest Digest;
  uint64_t Retired = 0;
  std::array<uint64_t, 16> OpcodeCounts{};
};

/// Runs \p Spec at \p L to completion in slices of \p Slice instructions,
/// with an obs::Counters attached when \p Observe.
SessionEnd runToCompletion(const RunSpec &Spec, Level L, bool Observe,
                           uint64_t Slice, const std::string &What) {
  SessionEnd End;
  Result<Executor> ExecOr = Executor::create(Spec);
  EXPECT_TRUE(ExecOr) << What << ": " << ExecOr.error().str();
  if (!ExecOr)
    return End;
  Executor Exec = ExecOr.take();
  std::unique_ptr<obs::Counters> Counters;
  if (Observe) {
    Counters = std::make_unique<obs::Counters>(Exec.regionMap().take(),
                                               Executor::ffiNames());
    Exec.attach(Counters.get());
  }
  EXPECT_TRUE(Exec.begin(L)) << What;
  for (;;) {
    Result<RunStatus> S = Exec.step(Slice);
    EXPECT_TRUE(S) << What << ": " << S.error().str();
    if (!S || *S == RunStatus::Completed)
      break;
    EXPECT_EQ(*S, RunStatus::Paused) << What;
    if (*S != RunStatus::Paused)
      break;
  }
  Result<StateDigest> D = Exec.sessionState();
  EXPECT_TRUE(D) << What;
  if (D)
    End.Digest = *D;
  Result<Outcome> Out = Exec.finish();
  EXPECT_TRUE(Out) << What;
  if (Out) {
    End.Behaviour = Out->Behaviour;
    End.Trace = Out->Trace;
  }
  if (!Counters) {
    End.Retired = End.Behaviour.Instructions;
    return End;
  }
  End.Retired = Counters->Retired;
  if (L == Level::Machine)
    for (const obs::Counters::FfiCost &C : Counters->Ffi)
      End.Retired += C.Calls;
  End.OpcodeCounts = Counters->OpcodeCounts;
  return End;
}

void expectSameEnd(const SessionEnd &A, const SessionEnd &B,
                   const std::string &What) {
  SCOPED_TRACE(What);
  expectSameObserved(A.Behaviour, B.Behaviour);
  EXPECT_TRUE(A.Trace == B.Trace);
  EXPECT_EQ(A.Digest, B.Digest);
  EXPECT_EQ(A.Retired, B.Retired);
}

} // namespace

TEST(Executor, ObserverIsNeutralOnEveryBackend) {
  // The observed run at Isa and Machine is a burst of calls to the
  // backend's run loop with hooks, where the null run has none, between
  // oracle steps (Machine) or syscall entries (Isa).  An observer must
  // change nothing: not the Observed, not the FFI trace, not the final
  // state, not the step count; nor must pausing every 97 instructions.
  RunSpec Wc;
  Wc.Source = wcSource();
  Wc.CommandLine = {"wc"};
  Wc.StdinData = randomLines(30, 5);
  RunSpec Sort;
  Sort.Source = sortSource();
  Sort.StdinData = randomLines(20, 6);
  const std::pair<const char *, RunSpec *> Apps[] = {{"wc", &Wc},
                                                    {"sort", &Sort}};
  for (const auto &[Name, Spec] : Apps) {
    Spec->Exec.MaxSteps = 100'000'000;
    Spec->Exec.JitHotThreshold = 1; // compile every block it can
    for (Level L : {Level::Machine, Level::Isa}) {
      SessionEnd Observed[2];
      for (BackendKind B : {BackendKind::Interp, BackendKind::Jit}) {
        Spec->Exec.Backend = B;
        std::string What = std::string(Name) + " at " + levelName(L) +
                           (B == BackendKind::Jit ? " on jit" : " on interp");
        SessionEnd Null = runToCompletion(*Spec, L, false, UINT64_MAX, What);
        EXPECT_TRUE(Null.Behaviour.Terminated) << What;
        SessionEnd Obs = runToCompletion(*Spec, L, true, UINT64_MAX, What);
        EXPECT_FALSE(Null.Trace.empty()) << What;
        expectSameEnd(Null, Obs, What + ", observed");
        expectSameEnd(Null, runToCompletion(*Spec, L, true, 97, What),
                      What + ", observed in slices of 97");
        Observed[B == BackendKind::Jit] = Obs;
      }
      // The event stream does not depend on the backend either.
      EXPECT_EQ(Observed[0].OpcodeCounts, Observed[1].OpcodeCounts)
          << Name << " at " << levelName(L);
      EXPECT_TRUE(Observed[0].Trace == Observed[1].Trace)
          << Name << " at " << levelName(L);
    }
  }
}

TEST(Executor, CountersDeterministicAndRegionBucketed) {
  Result<Executor> ExecOr = Executor::create(helloSpec());
  ASSERT_TRUE(ExecOr) << ExecOr.error().str();
  Executor Exec = ExecOr.take();

  obs::Counters A(Exec.regionMap().take(), Executor::ffiNames());
  Exec.attach(&A);
  ASSERT_TRUE(Exec.run(Level::Isa));

  obs::Counters B(Exec.regionMap().take(), Executor::ffiNames());
  Exec.attach(&B);
  ASSERT_TRUE(Exec.run(Level::Isa));

  // Identical runs, byte-identical reports.
  EXPECT_EQ(A.report(), B.report());
  EXPECT_EQ(A.toJson(), B.toJson());

  // hello writes its message through the output buffer, and every access
  // lands in a mapped Figure-2 region.
  EXPECT_GT(A.RegionStores[static_cast<size_t>(obs::Region::OutBuf)], 0u);
  EXPECT_EQ(A.RegionLoads[static_cast<size_t>(obs::Region::Other)], 0u);
  EXPECT_EQ(A.RegionStores[static_cast<size_t>(obs::Region::Other)], 0u);
  EXPECT_DOUBLE_EQ(A.cpi(), 1.0); // no clock at the ISA level
  // The write_stdout syscall was called and retired instructions.
  bool SawCalls = false;
  for (const obs::Counters::FfiCost &C : A.Ffi)
    SawCalls |= C.Calls != 0 && C.Instructions != 0;
  EXPECT_TRUE(SawCalls);
}

TEST(Executor, RegionTrafficAndFfiCostMatchAcrossLevels) {
  // The ISA interpreter and the circuit must agree not just on the
  // retire stream but on the aggregated observables: data-memory
  // traffic per Figure-2 region (the circuit's instruction fetches are
  // filtered out) and per-syscall calls/instructions.
  Result<Executor> ExecOr = Executor::create(helloSpec());
  ASSERT_TRUE(ExecOr) << ExecOr.error().str();
  Executor Exec = ExecOr.take();

  obs::Counters IsaC(Exec.regionMap().take(), Executor::ffiNames());
  Exec.attach(&IsaC);
  ASSERT_TRUE(Exec.run(Level::Isa));

  obs::Counters RtlC(Exec.regionMap().take(), Executor::ffiNames());
  Exec.attach(&RtlC);
  ASSERT_TRUE(Exec.run(Level::Rtl));

  for (unsigned R = 0; R != obs::NumRegions; ++R) {
    EXPECT_EQ(IsaC.RegionLoads[R], RtlC.RegionLoads[R])
        << "loads differ in region "
        << obs::regionName(static_cast<obs::Region>(R));
    EXPECT_EQ(IsaC.RegionStores[R], RtlC.RegionStores[R])
        << "stores differ in region "
        << obs::regionName(static_cast<obs::Region>(R));
  }
  ASSERT_EQ(IsaC.Ffi.size(), RtlC.Ffi.size());
  for (size_t I = 0; I != IsaC.Ffi.size(); ++I) {
    EXPECT_EQ(IsaC.Ffi[I].Calls, RtlC.Ffi[I].Calls);
    EXPECT_EQ(IsaC.Ffi[I].Instructions, RtlC.Ffi[I].Instructions);
  }
}

TEST(Executor, InstructionBudgetTimesOutAtIsa) {
  RunSpec Spec = helloSpec();
  Spec.Exec.MaxSteps = 50; // far too few to finish
  Result<Executor> ExecOr = Executor::create(Spec);
  ASSERT_TRUE(ExecOr) << ExecOr.error().str();
  Result<Outcome> R = ExecOr->run(Level::Isa);
  ASSERT_TRUE(R) << R.error().str();
  EXPECT_EQ(R->Status, RunStatus::Timeout);
  EXPECT_FALSE(R->Behaviour.Terminated);
}

TEST(Executor, CycleBudgetTimesOutAtRtl) {
  // Pre-redesign, MaxSteps was enforced only at the ISA level and a
  // too-small budget at the circuit level simply ran forever.  Now the
  // derived cycle budget turns it into a Timeout outcome.
  RunSpec Spec = helloSpec();
  Spec.Exec.MaxSteps = 50;
  Result<Executor> ExecOr = Executor::create(Spec);
  ASSERT_TRUE(ExecOr) << ExecOr.error().str();
  EXPECT_EQ(ExecOr->cycleBudget(), 50u * 16u);
  Result<Outcome> R = ExecOr->run(Level::Rtl);
  ASSERT_TRUE(R) << R.error().str();
  EXPECT_EQ(R->Status, RunStatus::Timeout);
  EXPECT_FALSE(R->Behaviour.Terminated);
}

TEST(Executor, CycleBudgetDerivation) {
  RunSpec Spec = helloSpec();
  Spec.Exec.MaxSteps = 10;
  EXPECT_EQ(Executor::create(Spec).take().cycleBudget(), 160u);
  Spec.Exec.MaxCycles = 1000; // explicit budget wins
  EXPECT_EQ(Executor::create(Spec).take().cycleBudget(), 1000u);
}

TEST(Executor, PauseResumeMatchesOneShot) {
  Result<Executor> ExecOr = Executor::create(helloSpec());
  ASSERT_TRUE(ExecOr) << ExecOr.error().str();
  Executor Exec = ExecOr.take();

  Result<Outcome> OneShot = Exec.run(Level::Isa);
  ASSERT_TRUE(OneShot) << OneShot.error().str();

  ASSERT_TRUE(Exec.begin(Level::Isa));
  EXPECT_TRUE(Exec.active());
  unsigned Pauses = 0;
  for (;;) {
    Result<RunStatus> S = Exec.step(100);
    ASSERT_TRUE(S) << S.error().str();
    if (*S != RunStatus::Paused)
      break;
    ++Pauses;
  }
  EXPECT_GT(Pauses, 5u); // hello takes well over 500 instructions
  Result<Outcome> Stepped = Exec.finish();
  ASSERT_TRUE(Stepped) << Stepped.error().str();
  EXPECT_FALSE(Exec.active());

  EXPECT_EQ(Stepped->Status, RunStatus::Completed);
  expectSameObserved(OneShot->Behaviour, Stepped->Behaviour);
}

TEST(Executor, PauseResumeWorksAtRtl) {
  Result<Executor> ExecOr = Executor::create(helloSpec());
  ASSERT_TRUE(ExecOr) << ExecOr.error().str();
  Executor Exec = ExecOr.take();

  Result<Outcome> OneShot = Exec.run(Level::Rtl);
  ASSERT_TRUE(OneShot) << OneShot.error().str();

  ASSERT_TRUE(Exec.begin(Level::Rtl));
  Result<RunStatus> First = Exec.step(200);
  ASSERT_TRUE(First) << First.error().str();
  EXPECT_EQ(*First, RunStatus::Paused);
  for (;;) {
    Result<RunStatus> S = Exec.step(1'000'000);
    ASSERT_TRUE(S) << S.error().str();
    if (*S != RunStatus::Paused)
      break;
  }
  Result<Outcome> Stepped = Exec.finish();
  ASSERT_TRUE(Stepped) << Stepped.error().str();
  EXPECT_EQ(Stepped->Status, RunStatus::Completed);
  expectSameObserved(OneShot->Behaviour, Stepped->Behaviour);
  EXPECT_EQ(OneShot->Behaviour.Cycles, Stepped->Behaviour.Cycles);
}

TEST(Executor, SpecLevelRunsButIsNotResumable) {
  Result<Executor> ExecOr = Executor::create(helloSpec());
  ASSERT_TRUE(ExecOr) << ExecOr.error().str();
  Result<Outcome> R = ExecOr->run(Level::Spec);
  ASSERT_TRUE(R) << R.error().str();
  EXPECT_EQ(R->Behaviour.StdoutData, "Hello, world!\n");
  EXPECT_FALSE(ExecOr->begin(Level::Spec));
}

// Interrupts a run at \p L every 200 instructions with step() quotas,
// the way the serving layer slices jobs, and requires the final
// StateDigest and Observed to be identical to an uninterrupted run: a
// resumed session must land on the same architectural state, bit for
// bit, no matter how many times it paused (the serving layer's
// pause/resume correctness claim).  A starvation budget still ends the
// run in Timeout.
void expectSlicedRunMatchesUnbudgeted(Level L) {
  // Reference: one run with budget to spare.
  Result<Executor> RefOr = Executor::create(helloSpec());
  ASSERT_TRUE(RefOr) << RefOr.error().str();
  Executor Ref = RefOr.take();
  ASSERT_TRUE(Ref.begin(L));
  Result<RunStatus> RefS = Ref.step(UINT64_MAX);
  ASSERT_TRUE(RefS) << RefS.error().str();
  ASSERT_EQ(*RefS, RunStatus::Completed);
  Result<StateDigest> RefDigest = Ref.sessionState();
  ASSERT_TRUE(RefDigest) << RefDigest.error().str();
  Result<Outcome> RefOut = Ref.finish();
  ASSERT_TRUE(RefOut) << RefOut.error().str();

  // The same program, paused after every 200-instruction slice.
  Result<Executor> ExecOr = Executor::create(helloSpec());
  ASSERT_TRUE(ExecOr) << ExecOr.error().str();
  Executor Exec = ExecOr.take();
  ASSERT_TRUE(Exec.begin(L));
  unsigned Pauses = 0;
  for (;;) {
    Result<RunStatus> S = Exec.step(200);
    ASSERT_TRUE(S) << S.error().str();
    if (*S == RunStatus::Completed)
      break;
    ASSERT_EQ(*S, RunStatus::Paused);
    ASSERT_LT(++Pauses, 10'000u) << "never completed";
  }
  EXPECT_GT(Pauses, 0u) << "the run was never interrupted; test is vacuous";
  Result<StateDigest> Digest = Exec.sessionState();
  ASSERT_TRUE(Digest) << Digest.error().str();
  Result<Outcome> Out = Exec.finish();
  ASSERT_TRUE(Out) << Out.error().str();

  expectSameObserved(RefOut->Behaviour, Out->Behaviour);
  EXPECT_EQ(RefDigest->Pc, Digest->Pc);
  EXPECT_EQ(RefDigest->Carry, Digest->Carry);
  EXPECT_EQ(RefDigest->Overflow, Digest->Overflow);
  EXPECT_EQ(RefDigest->Regs, Digest->Regs);
  EXPECT_EQ(RefDigest->MemoryHash, Digest->MemoryHash);
  EXPECT_EQ(RefDigest->MemoryBytes, Digest->MemoryBytes);

  // Under a starvation budget the run ends in Timeout.
  RunSpec Starved = helloSpec();
  Starved.Exec.MaxSteps = 200;
  Result<Executor> StarvedOr = Executor::create(Starved);
  ASSERT_TRUE(StarvedOr) << StarvedOr.error().str();
  Executor StarvedExec = StarvedOr.take();
  ASSERT_TRUE(StarvedExec.begin(L));
  Result<RunStatus> S = StarvedExec.step(UINT64_MAX);
  ASSERT_TRUE(S) << S.error().str();
  EXPECT_EQ(*S, RunStatus::Timeout);
  Result<Outcome> StarvedOut = StarvedExec.finish();
  ASSERT_TRUE(StarvedOut) << StarvedOut.error().str();
  EXPECT_EQ(StarvedOut->Status, RunStatus::Timeout);
}

// The compiled simulator backend (hdl/compile) must be observationally
// identical to hdl::FastSim at the Verilog level: same Observed
// (including instruction and cycle counts), same retire stream, same
// final StateDigest.  The compiled backend is the core's simulator
// linked into the build, so this runs the generated code on every host
// (and under the sanitizers).
TEST(Executor, CompiledHdlBackendMatchesInterpreterAtVerilog) {
  RunSpec InterpSpec = helloSpec();
  RunSpec CompiledSpec = helloSpec();
  CompiledSpec.Exec.Hdl = HdlBackendKind::Compiled;

  auto RunVerilog = [](const RunSpec &Spec, obs::TraceSink &Sink,
                       StateDigest &Digest) -> Result<Outcome> {
    Result<Executor> ExecOr = Executor::create(Spec);
    if (!ExecOr)
      return ExecOr.error();
    Executor Exec = ExecOr.take();
    Exec.attach(&Sink);
    if (Result<void> B = Exec.begin(Level::Verilog); !B)
      return B.error();
    Result<RunStatus> S = Exec.step(UINT64_MAX);
    if (!S)
      return S.error();
    Result<StateDigest> D = Exec.sessionState();
    if (!D)
      return D.error();
    Digest = *D;
    return Exec.finish();
  };

  obs::TraceSink InterpSink, CompiledSink;
  StateDigest InterpDigest, CompiledDigest;
  Result<Outcome> I = RunVerilog(InterpSpec, InterpSink, InterpDigest);
  ASSERT_TRUE(I) << I.error().str();
  Result<Outcome> C = RunVerilog(CompiledSpec, CompiledSink, CompiledDigest);
  ASSERT_TRUE(C) << C.error().str();

  ASSERT_EQ(I->Status, RunStatus::Completed);
  ASSERT_EQ(C->Status, RunStatus::Completed);
  expectSameObserved(I->Behaviour, C->Behaviour);
  EXPECT_EQ(I->Behaviour.Cycles, C->Behaviour.Cycles);
  EXPECT_EQ(InterpSink.retireStream(), CompiledSink.retireStream());
  EXPECT_EQ(InterpDigest.Pc, CompiledDigest.Pc);
  EXPECT_EQ(InterpDigest.Carry, CompiledDigest.Carry);
  EXPECT_EQ(InterpDigest.Overflow, CompiledDigest.Overflow);
  EXPECT_EQ(InterpDigest.Regs, CompiledDigest.Regs);
  EXPECT_EQ(InterpDigest.MemoryHash, CompiledDigest.MemoryHash);
  EXPECT_EQ(InterpDigest.MemoryBytes, CompiledDigest.MemoryBytes);
}

TEST(Executor, ReplenishedTimeoutMatchesUnbudgetedAtMachine) {
  expectSlicedRunMatchesUnbudgeted(Level::Machine);
}

TEST(Executor, ReplenishedTimeoutMatchesUnbudgetedAtIsa) {
  expectSlicedRunMatchesUnbudgeted(Level::Isa);
}

TEST(Executor, ReplenishedTimeoutMatchesUnbudgetedAtRtl) {
  expectSlicedRunMatchesUnbudgeted(Level::Rtl);
}

TEST(Executor, ReplenishedTimeoutMatchesUnbudgetedAtVerilog) {
  expectSlicedRunMatchesUnbudgeted(Level::Verilog);
}

TEST(Executor, SessionBehaviourSnapshotsTheRunningPrefix) {
  Result<Executor> ExecOr = Executor::create(helloSpec());
  ASSERT_TRUE(ExecOr) << ExecOr.error().str();
  Executor Exec = ExecOr.take();
  ASSERT_TRUE(Exec.begin(Level::Isa));
  Result<RunStatus> S = Exec.step(300);
  ASSERT_TRUE(S);
  ASSERT_EQ(*S, RunStatus::Paused);
  Result<Observed> Mid = Exec.sessionBehaviour();
  ASSERT_TRUE(Mid) << Mid.error().str();
  // The quota is enforced at the interpreter's chunk granularity, so the
  // session may run slightly past it — but never far, and never to
  // completion.
  EXPECT_GE(Mid->Instructions, 300u);
  EXPECT_LT(Mid->Instructions, 400u);
  EXPECT_FALSE(Mid->Terminated);
  // sessionInstructions() and the behaviour snapshot share one
  // coordinate system (startup prefix included), so a pause point taken
  // from either can be replayed against the other.
  Result<uint64_t> N = Exec.sessionInstructions();
  ASSERT_TRUE(N);
  EXPECT_EQ(*N, Mid->Instructions);
  Result<Outcome> Out = Exec.finish();
  ASSERT_TRUE(Out);
}

// The pluggable-backend contract, end to end: the same program at the
// same level must produce an identical Observed AND an identical final
// StateDigest whether the session steps on the interpreter or the JIT.
// The Machine level additionally covers the oracle-write invalidation
// contract — every FFI consultation there is an oracle interference
// write behind the backend's back, and MachineSem must invalidate the
// JIT's compiled blocks for the touched range.  On hosts without JIT
// support the Jit run degrades to the interpreter, so the comparison
// holds vacuously rather than failing.
void expectJitSessionMatchesInterp(Level L) {
  RunSpec Spec;
  Spec.Source = wcSource();
  Spec.CommandLine = {"wc"};
  Spec.StdinData = randomLines(40, 7);
  Spec.Exec.MaxSteps = 100'000'000;
  Spec.Exec.JitHotThreshold = 1; // compile every block, not just hot ones

  Observed Behaviours[2];
  StateDigest Digests[2];
  for (int I = 0; I != 2; ++I) {
    Spec.Exec.Backend = I ? BackendKind::Jit : BackendKind::Interp;
    Result<Executor> ExecOr = Executor::create(Spec);
    ASSERT_TRUE(ExecOr) << ExecOr.error().str();
    Executor Exec = ExecOr.take();
    ASSERT_TRUE(Exec.begin(L));
    Result<RunStatus> S = Exec.step(UINT64_MAX);
    ASSERT_TRUE(S) << S.error().str();
    ASSERT_EQ(*S, RunStatus::Completed);
    Result<StateDigest> D = Exec.sessionState();
    ASSERT_TRUE(D) << D.error().str();
    Digests[I] = *D;
    Result<Outcome> Out = Exec.finish();
    ASSERT_TRUE(Out) << Out.error().str();
    Behaviours[I] = Out->Behaviour;
  }

  expectSameObserved(Behaviours[0], Behaviours[1]);
  EXPECT_EQ(Digests[0].Pc, Digests[1].Pc);
  EXPECT_EQ(Digests[0].Carry, Digests[1].Carry);
  EXPECT_EQ(Digests[0].Overflow, Digests[1].Overflow);
  EXPECT_EQ(Digests[0].Regs, Digests[1].Regs);
  EXPECT_EQ(Digests[0].MemoryHash, Digests[1].MemoryHash);
  EXPECT_EQ(Digests[0].MemoryBytes, Digests[1].MemoryBytes);
}

TEST(Executor, JitBackendMatchesInterpAtIsa) {
  expectJitSessionMatchesInterp(Level::Isa);
}

TEST(Executor, JitBackendMatchesInterpAtMachine) {
  expectJitSessionMatchesInterp(Level::Machine);
}

//===----------------------------------------------------------------------===//
// Incremental StateDigest
//===----------------------------------------------------------------------===//

/// The software-level sessions whose digests are incremental.
struct DigestCell {
  Level L;
  BackendKind Backend;
  const char *Name;
};
const DigestCell DigestCells[] = {{Level::Isa, BackendKind::Interp, "isa"},
                                  {Level::Isa, BackendKind::Jit, "jit"},
                                  {Level::Machine, BackendKind::Interp,
                                   "machine"}};
/// The lab DRAM digests the same way; the core is slower, so the app
/// tests run it on the shorter apps only.
const DigestCell RtlCell = {Level::Rtl, BackendKind::Interp, "rtl"};

/// Runs \p Exec at \p L in slices of \p Slice instructions and requires
/// the incremental digest to equal the from-scratch one at every pause
/// and at completion.  Returns the final digest.
StateDigest expectIncrementalDigestExact(Executor &Exec, Level L,
                                         uint64_t Slice,
                                         const std::string &What) {
  StateDigest Final;
  EXPECT_TRUE(Exec.begin(L)) << What;
  for (unsigned Pause = 0;; ++Pause) {
    Result<RunStatus> S = Exec.step(Slice);
    EXPECT_TRUE(S) << What << ": " << S.error().str();
    if (!S)
      return Final;
    Result<StateDigest> Inc = Exec.sessionState();
    Result<StateDigest> Full = Exec.sessionStateFromScratch();
    EXPECT_TRUE(Inc && Full) << What;
    if (!Inc || !Full)
      return Final;
    EXPECT_EQ(Inc->MemoryHash, Full->MemoryHash)
        << What << ": pause " << Pause;
    EXPECT_EQ(*Inc, *Full) << What << ": pause " << Pause;
    Final = *Inc;
    if (*S != RunStatus::Paused)
      break;
  }
  EXPECT_TRUE(Exec.finish()) << What;
  return Final;
}

TEST(Executor, IncrementalDigestEqualsFromScratchForEveryApp) {
  const std::pair<const char *, std::string> Apps[] = {
      {helloSource(), ""},
      {catSource(), randomLines(20, 1)},
      {wcSource(), randomLines(30, 2)},
      {sortSource(), randomLines(20, 3)},
      {proofCheckerSource(), sampleValidProof()},
      {tinCompilerSource(), sampleTinProgram(4)}};
  for (const auto &[Source, Stdin] : Apps) {
    std::vector<DigestCell> Cells(std::begin(DigestCells),
                                  std::end(DigestCells));
    if (Source == helloSource() || Source == wcSource())
      Cells.push_back(RtlCell);
    for (const DigestCell &C : Cells) {
      RunSpec Spec;
      Spec.Source = Source;
      Spec.CommandLine = {"app"};
      Spec.StdinData = Stdin;
      Spec.Exec.Backend = C.Backend;
      // Compile every block on first entry, so the first store to a page
      // is as likely native as interpreted.
      Spec.Exec.JitHotThreshold = 1;
      Result<Executor> Exec = Executor::create(Spec);
      ASSERT_TRUE(Exec) << Exec.error().str();
      std::string What =
          std::string(C.Name) + " " + std::string(Source).substr(0, 40);
      // A slice that pauses a few dozen times on the longest app, and
      // the whole run in one go.
      expectIncrementalDigestExact(*Exec, C.L, 25'000, What + " sliced");
      expectIncrementalDigestExact(*Exec, C.L, UINT64_MAX, What);
    }
  }
}

TEST(Executor, IncrementalDigestExactOnSelfModifyingCode) {
  // selfmod-0.s patches its own loop body: an interpreted store, a JIT
  // deopt into the interpreter (the page is marked code), at the Machine
  // level the same through machine_sem, and at Rtl a core store into
  // the lab DRAM.  Every single step is a pause, then slices of three,
  // then the whole run.
  Result<fuzz::CaseSpec> Case =
      fuzz::loadCase(std::string(SILVER_FUZZ_CORPUS_DIR) + "/selfmod-0.s");
  ASSERT_TRUE(Case) << Case.error().str();
  Result<Prepared> P = fuzz::prepareCase(*Case);
  ASSERT_TRUE(P) << P.error().str();
  std::vector<DigestCell> Cells(std::begin(DigestCells), std::end(DigestCells));
  Cells.push_back(RtlCell);
  for (const DigestCell &C : Cells)
    for (uint64_t Slice : {uint64_t(1), uint64_t(3), UINT64_MAX}) {
      RunSpec Spec;
      Spec.CommandLine = Case->CommandLine;
      Spec.StdinData = Case->StdinData;
      Spec.Exec.Backend = C.Backend;
      Spec.Exec.JitHotThreshold = 1; // compile the loop on first entry
      Executor Exec = Executor::fromPrepared(Spec, *P);
      expectIncrementalDigestExact(Exec, C.L, Slice,
                                   std::string(C.Name) + " slice " +
                                       std::to_string(Slice));
    }
}

TEST(Executor, MachineErrorLeavesTheLevelNameToTheCaller) {
  // ffi-domain-0.s drives get_arg out of the interference oracle's
  // domain.  The Machine level's error says what went wrong; the
  // callers (checkEndToEnd, silverc) name the level once themselves.
  Result<fuzz::CaseSpec> Case =
      fuzz::loadCase(std::string(SILVER_FUZZ_CORPUS_DIR) + "/ffi-domain-0.s");
  ASSERT_TRUE(Case) << Case.error().str();
  Result<Prepared> P = fuzz::prepareCase(*Case);
  ASSERT_TRUE(P) << P.error().str();
  RunSpec Spec;
  Spec.CommandLine = Case->CommandLine;
  Spec.StdinData = Case->StdinData;
  Result<Outcome> Out = Executor::fromPrepared(Spec, *P).run(Level::Machine);
  ASSERT_FALSE(Out);
  const std::string Message = Out.error().message();
  EXPECT_EQ(Message, machine::OracleRejectedMessage);
  for (Level L : {Level::Spec, Level::Machine, Level::Isa, Level::Rtl,
                  Level::Verilog})
    EXPECT_EQ(Message.find(levelName(L)), std::string::npos)
        << Message << " names " << levelName(L);
}

TEST(Executor, IncrementalDigestSeesMachineOracleWrites) {
  // At the Machine level the FFI interference oracle, not the program,
  // writes stdin bytes into the program's buffers and the output buffer
  // region.  Pausing every 97 instructions lands between oracle steps
  // throughout the run: the written-page map must already cover what the
  // oracle wrote (MachineSemTest.OracleWritesMarkTheirPagesWritten pins
  // the rule on a page only the oracle touches).
  RunSpec Spec;
  Spec.Source = catSource();
  Spec.CommandLine = {"cat"};
  Spec.StdinData = randomLines(40, 7);
  Result<Executor> Exec = Executor::create(Spec);
  ASSERT_TRUE(Exec) << Exec.error().str();
  expectIncrementalDigestExact(*Exec, Level::Machine, 97, "machine cat");
}

TEST(Executor, PrepareCacheSharesOneBootSnapshotPerProgram) {
  // The snapshot is program-dependent and run-independent: every hit on
  // a program shares it, whatever the command line and stdin, and a
  // session booted from it still sees its own argv and stdin.
  PrepareCache Cache;
  RunSpec A;
  A.Source = catSource();
  A.CommandLine = {"cat"};
  A.StdinData = "first\n";
  RunSpec B = A;
  B.CommandLine = {"cat", "again"};
  B.StdinData = "second run\n";
  Result<Prepared> PA = Cache.prepare(A);
  Result<Prepared> PB = Cache.prepare(B);
  ASSERT_TRUE(PA && PB);
  ASSERT_TRUE(PA->Snapshot);
  EXPECT_EQ(PA->Snapshot, PB->Snapshot);
  Result<Prepared> Hello = Cache.prepare(helloSpec());
  ASSERT_TRUE(Hello);
  EXPECT_NE(Hello->Snapshot, PA->Snapshot);

  for (auto [Spec, P] : {std::pair{A, PA.take()}, std::pair{B, PB.take()}}) {
    Executor Exec = Executor::fromPrepared(Spec, std::move(P));
    Result<Outcome> Out = Exec.run(Level::Isa);
    ASSERT_TRUE(Out) << Out.error().str();
    EXPECT_EQ(Out->Behaviour.StdoutData, Spec.StdinData);
  }
}

/// hello's Prepared with one extra byte after the program: part of the
/// image (and of the snapshot), on the program's last page, but never
/// executed, read or written by the run.
Prepared helloWithTrailingByte(uint8_t Byte) {
  Result<Prepared> P = prepare(helloSpec());
  EXPECT_TRUE(P) << P.error().str();
  Prepared Q = P.take();
  Q.Program.Program.push_back(Byte);
  Q.Image.Program = Q.Program.Program;
  Q.Snapshot = nullptr; // this is a different image: rebuilt by begin()
  Result<sys::MemoryLayout> L = sys::MemoryLayout::compute(
      Q.Image.Params, static_cast<Word>(Q.Image.Program.size()));
  EXPECT_TRUE(L);
  EXPECT_EQ(L->CodeBase, Q.Program.CodeBase) << "trailer moved the program";
  return Q;
}

TEST(Executor, DigestCatchesAFlippedByteOnACleanPage) {
  // The incremental digest takes a clean page's hash from the snapshot;
  // two images that differ by one byte on a page neither run writes must
  // still digest differently, and each must match its from-scratch hash.
  Prepared A = helloWithTrailingByte(0x5a);
  Prepared B = helloWithTrailingByte(0x5b);
  for (const DigestCell &C : DigestCells) {
    RunSpec Spec = helloSpec();
    Spec.Exec.Backend = C.Backend;
    Spec.Exec.JitHotThreshold = 1;
    Executor ExecA = Executor::fromPrepared(Spec, A);
    Executor ExecB = Executor::fromPrepared(Spec, B);
    StateDigest DA =
        expectIncrementalDigestExact(ExecA, C.L, UINT64_MAX, C.Name);
    StateDigest DB =
        expectIncrementalDigestExact(ExecB, C.L, UINT64_MAX, C.Name);
    // Same run, same registers: only the one image byte differs.
    EXPECT_EQ(DA.Pc, DB.Pc) << C.Name;
    EXPECT_EQ(DA.Regs, DB.Regs) << C.Name;
    EXPECT_NE(DA.MemoryHash, DB.MemoryHash) << C.Name;
  }
}
