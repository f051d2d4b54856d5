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

static constexpr Run JitRun(Level::Isa, stack::BackendKind::Jit);
static constexpr Run CompiledRun(Level::Verilog, stack::BackendKind::Interp,
                                 stack::HdlBackendKind::Compiled);

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

const char *silver::fuzz::runName(const Run &R) {
  if (R.Backend == stack::BackendKind::Jit)
    return "jit";
  if (R.Hdl == stack::HdlBackendKind::Compiled)
    return "verilog-compiled";
  return stack::levelName(R.L);
}

bool silver::fuzz::parseRun(const std::string &Name, Run &Out) {
  Level L;
  if (Name == "jit")
    Out = JitRun;
  else if (Name == "verilog-compiled")
    Out = CompiledRun;
  else if (stack::parseLevel(Name, L) && L != Level::Spec)
    Out = L; // the spec level has no machine state to compare
  else
    return false;
  return true;
}

std::string Divergence::fingerprint() const {
  return std::string(diffKindName(Kind)) + ":" + runName(Ref) + ":" +
         runName(Other);
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

LevelRun runOne(const stack::Prepared &P, const CaseSpec &C, const Run &Which,
                uint64_t MaxSteps) {
  LevelRun R;
  R.Which = Which;

  stack::RunSpec Spec;
  Spec.CommandLine = C.CommandLine;
  Spec.StdinData = C.StdinData;
  Spec.Exec.MaxSteps = MaxSteps;
  Spec.Exec.Backend = Which.Backend;
  Spec.Exec.Hdl = Which.Hdl;
  Spec.Exec.JitHotThreshold = 1; // cases are short; compile everything

  stack::Executor E = stack::Executor::fromPrepared(Spec, P);
  obs::TraceSink Sink;
  Sink.setFfiNames(stack::Executor::ffiNames());
  // The JIT run stays unobserved: per-step retire events would force
  // every block back to the interpreter, and the retire stream is only
  // compared for the hardware levels anyway.
  if (Which.Backend != stack::BackendKind::Jit)
    E.attach(&Sink);

  if (Result<void> B = E.begin(Which.L); !B) {
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
  D.Ref = Ref.Which;
  D.Other = Other.Which;
  D.Detail = std::move(Detail);
  return D;
}

/// Compares \p R against its reference run \p Ref (OracleOptions::Levels).
/// An interpreted run's reference is the Isa run, with the two masked
/// asymmetries of the file comment of Oracle.h.  Any other run's is the
/// interpreted run at its level: the same semantics on another backend,
/// so that comparison is exact — no asymmetry is masked, the retire
/// streams are compared whole, and the instruction and cycle counts must
/// match too.
Divergence compareRuns(const LevelRun &Ref, const LevelRun &R, bool HasFfi) {
  const Level L = R.Which.L;
  if (Ref.Errored || R.Errored) {
    // Both sides failing is agreement (the generator aims never to get
    // here); one side failing while the other completes is the kind of
    // asymmetry the fuzzer exists to find.
    if (Ref.Errored == R.Errored)
      return {};
    if (!Ref.Errored && L == Level::Machine &&
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
                   std::string(runName(Bad.Which)) + " errored: " +
                       Bad.ErrorMessage);
  }
  if (Ref.Out.Status != R.Out.Status)
    return diverge(DiffKind::Status, Ref, R,
                   std::string(stack::runStatusName(Ref.Out.Status)) +
                       " vs " + stack::runStatusName(R.Out.Status));
  if (Result<void> B = stack::compareBehaviour(R.Out, Ref.Out, false); !B)
    return diverge(DiffKind::Behaviour, Ref, R, B.error().message());
  const bool Exact = !R.Which.interp();
  const stack::Observed &A = Ref.Out.Behaviour;
  const stack::Observed &B = R.Out.Behaviour;
  if (Exact && (A.Instructions != B.Instructions || A.Cycles != B.Cycles))
    return diverge(DiffKind::Behaviour, Ref, R,
                   "counters " + std::to_string(A.Instructions) + "i/" +
                       std::to_string(A.Cycles) + "c vs " +
                       std::to_string(B.Instructions) + "i/" +
                       std::to_string(B.Cycles) + "c");

  // Retire streams: at the hardware levels only (the Machine level
  // compresses each FFI call into one unobserved oracle step, and the
  // JIT run is unobserved).
  if (isHardware(L)) {
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
  if (!Exact && isHardware(L)) {
    // The retired halt self-jump wrote PC+4 to the link register and
    // ran the ALU once more; the epilogue preserved the real flags in
    // r43/r44, which stay unmasked.
    DB.Regs[isa::NumRegs - 1] = DA.Regs[isa::NumRegs - 1];
    DB.Carry = DA.Carry;
    DB.Overflow = DA.Overflow;
  }
  if (L == Level::Machine && HasFfi) {
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
                     'r' + std::to_string(I) + " = " + toHex(DA.Regs[I]) +
                         " vs " + toHex(DB.Regs[I]));
  if (DA.MemoryBytes != DB.MemoryBytes || DA.MemoryHash != DB.MemoryHash)
    return diverge(DiffKind::State, Ref, R, "final memory differs");
  return {};
}

} // namespace

Result<OracleResult> silver::fuzz::runCase(const CaseSpec &C,
                                           const OracleOptions &O) {
  // The schedule: the Isa reference, then each listed run, preceded by
  // its interpreted reference when that is not scheduled yet.
  const Run IsaRun = Level::Isa;
  std::vector<Run> Schedule = {IsaRun};
  auto Add = [&Schedule](const Run &R) {
    if (std::find(Schedule.begin(), Schedule.end(), R) == Schedule.end())
      Schedule.push_back(R);
  };
  for (const Run &R : O.Levels) {
    if (R.L == Level::Spec)
      return Error("the fuzz oracle has no Spec level: generated cases "
                   "are machine code with no source program");
    if (!R.interp() && R != JitRun && R != CompiledRun)
      return Error(std::string("the fuzz oracle has no ") +
                   stack::levelName(R.L) + " run on another backend");
    Add(R.L);
    Add(R);
  }

  Result<stack::Prepared> POr = prepareCase(C);
  if (!POr)
    return POr.error();

  OracleResult Res;
  LevelRun Isa = runOne(*POr, C, IsaRun, O.MaxSteps);
  Res.IsaInstructions = Isa.Out.Behaviour.Instructions;
  if (!Isa.Errored && Isa.Out.Status != stack::RunStatus::Completed) {
    // Nothing to compare against; also keeps runaway loops away from
    // the cycle-accurate levels.
    Res.Diff.Kind = DiffKind::Inconclusive;
    Res.Diff.Detail = "reference level did not complete within budget";
    Res.Runs.push_back(std::move(Isa));
    return Res;
  }

  // A diverging run that runs off into a loop should be cut short
  // cheaply: everything after the reference gets a budget just above
  // the ISA instruction count (the slack covers the startup prefix and
  // the extra halt retire).
  uint64_t Budget =
      Isa.Errored ? O.MaxSteps : Isa.Out.Behaviour.Instructions + 256;

  Res.Runs.push_back(std::move(Isa));
  for (size_t I = 1; I != Schedule.size(); ++I) {
    const Run &R = Schedule[I];
    const Run Ref = R.interp() ? IsaRun : Run(R.L);
    const LevelRun &RefRun = *std::find_if(
        Res.Runs.begin(), Res.Runs.end(),
        [&Ref](const LevelRun &Done) { return Done.Which == Ref; });
    LevelRun Other = runOne(*POr, C, R, Budget);
    Divergence D = compareRuns(RefRun, Other, C.hasFfi());
    Res.Runs.push_back(std::move(Other));
    if (D.found() && !Res.Diff.found())
      Res.Diff = D;
    else if (D.Kind == DiffKind::Inconclusive &&
             Res.Diff.Kind == DiffKind::None)
      Res.Diff = D; // counted, but a later real divergence still wins
  }
  return Res;
}
