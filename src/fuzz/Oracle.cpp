//===- fuzz/Oracle.cpp - Cross-level differential oracle --------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "fuzz/Oracle.h"

#include "machine/MachineSem.h"
#include "obs/TraceSink.h"
#include "support/StringUtils.h"
#include "sys/Syscalls.h"

#include <algorithm>

using namespace silver;
using namespace silver::fuzz;
using stack::Level;

const char *silver::fuzz::diffKindName(DiffKind K) {
  switch (K) {
  case DiffKind::None:
    return "none";
  case DiffKind::Inconclusive:
    return "inconclusive";
  case DiffKind::Status:
    return "status";
  case DiffKind::Behaviour:
    return "behaviour";
  case DiffKind::Retire:
    return "retire";
  case DiffKind::State:
    return "state";
  }
  return "?";
}

static const char *runName(Level L, bool Jit, bool Compiled) {
  return Compiled ? "verilog-compiled" : Jit ? "jit" : stack::levelName(L);
}

std::string Divergence::fingerprint() const {
  return std::string(diffKindName(Kind)) + ":" + stack::levelName(Ref) + ":" +
         runName(Other, OtherJit, OtherCompiled);
}

Result<stack::Prepared> silver::fuzz::prepareCase(const CaseSpec &C) {
  assembler::Assembler A;
  emitProgram(C, A);
  const std::map<std::string, Word> Externs = {
      {"ffi_dispatch", fuzzLayout().SyscallCodeBase}};

  // Two-pass assembly: the program size decides CodeBase, and CodeBase
  // decides the relaxation of symbolic branches.  Item sizes depend on
  // label distances, not on the base address, so one re-assembly
  // converges; the loop guards the invariant rather than assuming it.
  Result<assembler::Assembled> First = A.assemble(0, Externs);
  if (!First)
    return First.error();
  Word Size = static_cast<Word>(First->Bytes.size());
  for (int Attempt = 0; Attempt != 4; ++Attempt) {
    Result<sys::MemoryLayout> L =
        sys::MemoryLayout::compute(fuzzLayoutParams(), Size);
    if (!L)
      return L.error();
    Result<assembler::Assembled> Out = A.assemble(L->CodeBase, Externs);
    if (!Out)
      return Out.error();
    if (Out->Bytes.size() == Size) {
      stack::Prepared P;
      P.Program.Program = Out->Bytes;
      P.Program.CodeBase = L->CodeBase;
      P.Image.CommandLine = C.CommandLine;
      P.Image.StdinData = C.StdinData;
      P.Image.Program = std::move(Out->Bytes);
      P.Image.Params = fuzzLayoutParams();
      return P;
    }
    Size = static_cast<Word>(Out->Bytes.size());
  }
  return Error("fuzz program size did not converge across re-assembly");
}

namespace {

LevelRun runOne(const stack::Prepared &P, const CaseSpec &C, Level L,
                uint64_t MaxSteps, bool Jit = false, bool Compiled = false) {
  LevelRun R;
  R.L = L;
  R.Jit = Jit;
  R.Compiled = Compiled;
  R.Ran = true;

  stack::RunSpec Spec;
  Spec.CommandLine = C.CommandLine;
  Spec.StdinData = C.StdinData;
  Spec.Exec.MaxSteps = MaxSteps;
  Spec.Exec.Backend =
      Jit ? stack::BackendKind::Jit : stack::BackendKind::Interp;
  Spec.Exec.Hdl = Compiled ? stack::HdlBackendKind::Compiled
                           : stack::HdlBackendKind::Interp;
  Spec.Exec.JitHotThreshold = 1; // cases are short; compile everything

  stack::Executor E = stack::Executor::fromPrepared(Spec, P);
  obs::TraceSink Sink;
  Sink.setFfiNames(stack::Executor::ffiNames());
  // The JIT run stays unobserved: per-step retire events would force
  // every block back to the interpreter, and the retire stream is only
  // compared for the hardware levels anyway.
  if (!Jit)
    E.attach(&Sink);

  if (Result<void> B = E.begin(L); !B) {
    R.Errored = true;
    R.ErrorMessage = B.error().message();
    return R;
  }
  Result<stack::RunStatus> St = E.step(UINT64_MAX);
  if (!St) {
    R.Errored = true;
    R.ErrorMessage = St.error().message();
    return R;
  }
  if (Result<stack::StateDigest> D = E.sessionState())
    R.Digest = *D;
  Result<stack::Outcome> Out = E.finish();
  if (!Out) {
    R.Errored = true;
    R.ErrorMessage = Out.error().message();
    return R;
  }
  R.Out = Out.take();
  R.Retires = Sink.retireStream();
  return R;
}

bool isHardware(Level L) { return L == Level::Rtl || L == Level::Verilog; }

Divergence diverge(DiffKind K, const LevelRun &Ref, const LevelRun &Other,
                   std::string Detail) {
  Divergence D;
  D.Kind = K;
  D.Ref = Ref.L;
  D.Other = Other.L;
  D.OtherJit = Other.Jit;
  D.OtherCompiled = Other.Compiled;
  D.Detail = std::move(Detail);
  return D;
}

/// Compares \p R against the reference run \p Ref: the Isa run, with the
/// two masked asymmetries of the file comment of Oracle.h, or, for the
/// compiled-simulator run, the interpreted Verilog run.  Both of those
/// are the same hardware semantics on the same module, so that
/// comparison is exact: no asymmetry is masked, the retire streams are
/// compared whole, and the instruction and cycle counts must match too.
Divergence compareRuns(const LevelRun &Ref, const LevelRun &R, bool HasFfi) {
  if (Ref.Errored || R.Errored) {
    // Both sides failing is agreement (the generator aims never to get
    // here); one side failing while the other completes is the kind of
    // asymmetry the fuzzer exists to find.
    if (Ref.Errored == R.Errored)
      return {};
    if (!Ref.Errored && R.L == Level::Machine &&
        R.ErrorMessage == machine::OracleRejectedMessage) {
      // ffi_interfer is specified only for well-formed FFI call states;
      // the real syscall code the other levels run has no such domain
      // restriction.  A generated case that wanders out of the domain
      // (e.g. a looped get_arg that turns its own result bytes into an
      // out-of-range index) is outside the theorem, not a divergence.
      Divergence D;
      D.Kind = DiffKind::Inconclusive;
      D.Detail = "FFI call left the interference oracle's well-formed "
                 "domain";
      return D;
    }
    const LevelRun &Bad = Ref.Errored ? Ref : R;
    return diverge(DiffKind::Status, Ref, R,
                   std::string(runName(Bad.L, Bad.Jit, Bad.Compiled)) +
                       " errored: " +
                       Bad.ErrorMessage);
  }
  if (Ref.Out.Status != R.Out.Status)
    return diverge(DiffKind::Status, Ref, R,
                   std::string(stack::runStatusName(Ref.Out.Status)) +
                       " vs " + stack::runStatusName(R.Out.Status));
  if (Result<void> B = stack::compareBehaviour(R.Out, Ref.Out, false); !B)
    return diverge(DiffKind::Behaviour, Ref, R, B.error().message());
  const bool Exact = isHardware(Ref.L);
  const stack::Observed &A = Ref.Out.Behaviour;
  const stack::Observed &B = R.Out.Behaviour;
  if (Exact && (A.Instructions != B.Instructions || A.Cycles != B.Cycles))
    return diverge(DiffKind::Behaviour, Ref, R,
                   "counters " + std::to_string(A.Instructions) + "i/" +
                       std::to_string(A.Cycles) + "c vs " +
                       std::to_string(B.Instructions) + "i/" +
                       std::to_string(B.Cycles) + "c");

  // Retire streams: against the hardware levels only (the Machine level
  // compresses each FFI call into one unobserved oracle step, and the
  // JIT run is unobserved).
  if (isHardware(R.L)) {
    std::vector<std::pair<Word, uint8_t>> Other = R.Retires;
    if (!Exact && Other.size() == Ref.Retires.size() + 1 &&
        Other.back().first == Ref.Digest.Pc)
      Other.pop_back(); // the hardware's extra halt-self-jump retire
    if (Other != Ref.Retires) {
      size_t N = std::min(Other.size(), Ref.Retires.size());
      size_t At = N;
      for (size_t I = 0; I != N; ++I)
        if (Other[I] != Ref.Retires[I]) {
          At = I;
          break;
        }
      Divergence D = diverge(
          DiffKind::Retire, Ref, R,
          At < N ? "first mismatch at retire " + std::to_string(At) +
                       ": pc " + toHex(Ref.Retires[At].first) + " vs " +
                       toHex(Other[At].first)
                 : "stream lengths " + std::to_string(Ref.Retires.size()) +
                       " vs " + std::to_string(Other.size()));
      D.RetireAt = At;
      return D;
    }
  }

  stack::StateDigest DA = Ref.Digest;
  stack::StateDigest DB = R.Digest;
  if (!Exact && isHardware(R.L)) {
    // The retired halt self-jump wrote PC+4 to the link register and
    // ran the ALU once more; the epilogue preserved the real flags in
    // r43/r44, which stay unmasked.
    DB.Regs[isa::NumRegs - 1] = DA.Regs[isa::NumRegs - 1];
    DB.Carry = DA.Carry;
    DB.Overflow = DA.Overflow;
  }
  if (R.L == Level::Machine && HasFfi) {
    // The interference oracle zeroes the clobber set instead of running
    // the syscall code (which leaves junk in those registers).  The
    // flags stay unmasked: the generator re-normalises them with an
    // Add right after every FFI call.
    for (unsigned Reg : sys::syscallClobberedRegs())
      DB.Regs[Reg] = DA.Regs[Reg];
  }
  if (DA.Pc != DB.Pc)
    return diverge(DiffKind::State, Ref, R,
                   "pc " + toHex(DA.Pc) + " vs " + toHex(DB.Pc));
  if (DA.Carry != DB.Carry || DA.Overflow != DB.Overflow)
    return diverge(DiffKind::State, Ref, R, "flags differ");
  for (unsigned I = 0; I != isa::NumRegs; ++I)
    if (DA.Regs[I] != DB.Regs[I])
      return diverge(DiffKind::State, Ref, R,
                     "r" + std::to_string(I) + " = " + toHex(DA.Regs[I]) +
                         " vs " + toHex(DB.Regs[I]));
  if (DA.MemoryBytes != DB.MemoryBytes || DA.MemoryHash != DB.MemoryHash)
    return diverge(DiffKind::State, Ref, R, "final memory differs");
  return {};
}

} // namespace

Result<OracleResult> silver::fuzz::runCase(const CaseSpec &C,
                                           const OracleOptions &O) {
  for (Level L : O.Levels)
    if (L == Level::Spec)
      return Error("the fuzz oracle has no Spec level: generated cases "
                   "are machine code with no source program");

  Result<stack::Prepared> POr = prepareCase(C);
  if (!POr)
    return POr.error();

  OracleResult Res;
  LevelRun Isa = runOne(*POr, C, Level::Isa, O.MaxSteps);
  Res.IsaInstructions = Isa.Out.Behaviour.Instructions;
  if (!Isa.Errored && Isa.Out.Status != stack::RunStatus::Completed) {
    // Nothing to compare against; also keeps runaway loops away from
    // the cycle-accurate levels.
    Res.Diff.Kind = DiffKind::Inconclusive;
    Res.Diff.Detail = "reference level did not complete within budget";
    Res.Runs.push_back(std::move(Isa));
    return Res;
  }

  // A diverging level that runs off into a loop should be cut short
  // cheaply: everything after the reference gets a budget just above
  // the ISA instruction count (the slack covers the startup prefix and
  // the extra halt retire).
  uint64_t Budget =
      Isa.Errored ? O.MaxSteps : Isa.Out.Behaviour.Instructions + 256;

  Res.Runs.push_back(Isa);
  if (O.CompareJit) {
    // The Jit-vs-Isa differential level: the same image at Level::Isa
    // stepped by the JIT backend.  Neither masked asymmetry applies (no
    // extra halt retire, no oracle clobber difference), so the
    // comparison is exact down to the final digest.
    LevelRun J = runOne(*POr, C, Level::Isa, Budget, /*Jit=*/true);
    Divergence D = compareRuns(Res.Runs.front(), J, C.hasFfi());
    Res.Runs.push_back(std::move(J));
    if (D.found() && !Res.Diff.found())
      Res.Diff = D;
  }
  for (Level L : O.Levels) {
    if (L == Level::Isa)
      continue;
    LevelRun R = runOne(*POr, C, L, Budget);
    Divergence D = compareRuns(Res.Runs.front(), R, C.hasFfi());
    Res.Runs.push_back(std::move(R));
    if (D.found() && !Res.Diff.found())
      Res.Diff = D;
    else if (D.Kind == DiffKind::Inconclusive &&
             Res.Diff.Kind == DiffKind::None)
      Res.Diff = D; // counted, but a later real divergence still wins
  }
  if (O.CompareCompiled) {
    // The Compiled-vs-Verilog differential level: locate (or add) the
    // interpreted Verilog run, then the same image again with the
    // compiled simulator backend, compared exactly (both sides are the
    // hardware, so no asymmetry is masked).
    size_t VIdx = Res.Runs.size();
    for (size_t I = 0; I != Res.Runs.size(); ++I)
      if (Res.Runs[I].L == Level::Verilog && !Res.Runs[I].Compiled)
        VIdx = I;
    if (VIdx == Res.Runs.size()) {
      LevelRun V = runOne(*POr, C, Level::Verilog, Budget);
      Divergence D = compareRuns(Res.Runs.front(), V, C.hasFfi());
      Res.Runs.push_back(std::move(V));
      if (D.found() && !Res.Diff.found())
        Res.Diff = D;
    }
    LevelRun CR = runOne(*POr, C, Level::Verilog, Budget, /*Jit=*/false,
                         /*Compiled=*/true);
    Divergence D = compareRuns(Res.Runs[VIdx], CR, C.hasFfi());
    Res.Runs.push_back(std::move(CR));
    if (D.found() && !Res.Diff.found())
      Res.Diff = D;
  }
  return Res;
}
