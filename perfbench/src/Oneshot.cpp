//===- perfbench/src/Oneshot.cpp - The silverc user ------------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
// One thread runs jobs back to back with no cache, the way `silverc`
// runs a program: a fresh Executor::create (the whole compiler), then
// begin(Isa), step, finish.  Jobs cycle through a seeded pool of the six
// apps, half interpreted and half on the JIT, a quarter of them source
// variants.  In the traced run every other job is traced: the compiler
// runs pass by pass (in compileProgram's order) under one span each, and
// interpreter jobs carry an obs::Counters.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "asm/Assembler.h"
#include "cml/CodeGen.h"
#include "cml/Compiler.h"
#include "cml/Flat.h"
#include "cml/Infer.h"
#include "cml/Lower.h"
#include "cml/Parser.h"
#include "obs/Counters.h"

#include <algorithm>

using namespace bench;

namespace {

struct Job {
  App A;
  std::string Source;
  std::string Stdin;
  std::string Expected;
  Cell C;
  std::string Kind; ///< app/cell: the overhead and throughput group
};

/// cml::compileProgram's pipeline with one span per pass.
Result<cml::Compiled> compileByPass(const std::string &Source,
                                    const cml::CompileOptions &Opts,
                                    Tracer *T, uint64_t JobId) {
  Span Whole(T, "cml.compile", JobId);
  std::string Full = cml::withPrelude(Source);
  Result<cml::Program> Prog = [&] {
    Span S(T, "cml.parse", JobId);
    return cml::parseProgram(Full);
  }();
  if (!Prog)
    return Error("parse error: " + Prog.error().str());
  {
    Span S(T, "cml.infer", JobId);
    if (auto Types = cml::inferProgram(*Prog); !Types)
      return Error("type error: " + Types.error().str());
  }
  Result<cml::CoreProgram> Core = [&] {
    Span S(T, "cml.lower", JobId);
    return cml::lowerProgram(*Prog);
  }();
  if (!Core)
    return Core.error();
  cml::Compiled Out;
  {
    Span S(T, "cml.opt", JobId);
    Out.Stats = cml::optimizeCore(*Core, Opts.Opt);
  }
  Out.NumGlobals = Core->GlobalCount;
  cml::FlatProgram Flat = [&] {
    Span S(T, "cml.flatten", JobId);
    return cml::flattenProgram(std::move(*Core));
  }();
  Out.NumFunctions = static_cast<unsigned>(Flat.Funs.size());
  assembler::Assembler Asm;
  {
    Span S(T, "cml.codegen", JobId);
    if (Result<void> G = cml::generateProgram(Flat, Asm); !G)
      return G.error();
  }
  Span S(T, "asm.assemble", JobId);
  Result<assembler::Assembled> Sized = Asm.assemble(0);
  if (!Sized)
    return Sized.error();
  Result<sys::MemoryLayout> Layout = sys::MemoryLayout::compute(
      Opts.Layout, static_cast<Word>(Sized->Bytes.size()));
  if (!Layout)
    return Layout.error();
  Result<assembler::Assembled> Final = Asm.assemble(Layout->CodeBase);
  if (!Final)
    return Final.error();
  Out.Program = std::move(Final->Bytes);
  Out.CodeBase = Layout->CodeBase;
  return Out;
}

std::vector<Job> makePool(uint64_t Seed) {
  Rng R(Seed * 0x9e3779b97f4a7c15ull + 11);
  std::vector<Job> Pool;
  uint64_t Variant = Seed << 20;
  // Each deck of twelve holds every (app, backend) pair once, so the mix
  // is the same for every seed; the seed picks inputs, order, variants.
  for (unsigned Deck = 0; Deck != 8; ++Deck) {
    std::vector<Job> D;
    for (App A : AllApps)
      for (const Cell &C : {IsaCell, JitCell}) {
        Job J{A, appSource(A), smallInput(A, R), "", C,
              std::string(appName(A)) + "/" + cellName(C)};
        if (R.below(4) == 0)
          J.Source = sourceVariant(J.Source, ++Variant);
        J.Expected = appSpec(A, J.Stdin);
        D.push_back(std::move(J));
      }
    for (size_t I = D.size(); I > 1; --I)
      std::swap(D[I - 1], D[R.below(static_cast<uint32_t>(I))]);
    for (Job &J : D)
      Pool.push_back(std::move(J));
  }
  return Pool;
}

} // namespace

void bench::runOneshot(const Options &O, Report &R) {
  if (!stack::backendSupported(stack::BackendKind::Jit)) {
    R.mismatch("the JIT is not supported on this host");
    return;
  }
  std::vector<Job> Pool;
  // Set-up: generate the pool and its expected outputs, then run each
  // (app, backend) once so lazy allocation is done before timing.
  double SetupS = medianSetupSeconds(5, [&] {
    Pool = makePool(O.Seed);
    for (size_t I = 0; I != 12; ++I) {
      const Job &J = Pool[I];
      Result<stack::Executor> E = stack::Executor::create(
          makeSpec(J.Source, J.A, J.Stdin, J.C));
      if (!E) {
        R.mismatch("warm-up " + J.Kind + ": " + E.error().str());
        continue;
      }
      if (Result<SessionRun> S = runSession(*E, J.C, false, nullptr, 0); !S)
        R.mismatch("warm-up " + J.Kind + ": " + S.error().str());
    }
  });
  R.EndToEnd.set("setup_s", SetupS, "s");

  std::unique_ptr<Tracer> T;
  if (O.Trace)
    T = std::make_unique<Tracer>();
  obs::Counters Counters({}, stack::Executor::ffiNames());
  uint64_t CountedRuns = 0;

  struct KindTotals {
    uint64_t Instr = 0, StepNs = 0;
  };
  std::map<std::string, KindTotals> ByKind;
  std::map<std::string, std::pair<uint64_t, uint64_t>> StepByCell; // wall,cpu
  std::map<std::string, uint64_t> RunsByCell;
  std::vector<OpSample> Ops;

  CpuRotation Rotation;
  uint64_t Start = nowNs();
  uint64_t Deadline = Start + static_cast<uint64_t>(O.Seconds * 1e9);
  for (uint64_t I = 0; nowNs() < Deadline; ++I) {
    const Job &J = Pool[I % Pool.size()];
    Rotation.next();
    bool Traced = T && I % 2 == 1;
    Tracer *Tr = Traced ? T.get() : nullptr;
    ++R.Attempted;
    stack::RunSpec Spec = makeSpec(J.Source, J.A, J.Stdin, J.C);
    uint64_t T0 = nowNs();
    Span JobSpan(Tr, "job", I + 1);
    Result<stack::Executor> E = [&]() -> Result<stack::Executor> {
      if (!Traced)
        return stack::Executor::create(Spec);
      Result<cml::Compiled> C = compileByPass(Spec.Source, Spec.Compile, Tr,
                                              I + 1);
      if (!C)
        return C.error();
      stack::Prepared P;
      P.Program = C.take();
      P.Image.CommandLine = Spec.CommandLine;
      P.Image.StdinData = Spec.StdinData;
      P.Image.Program = P.Program.Program;
      P.Image.Params = Spec.Compile.Layout;
      return stack::Executor::fromPrepared(Spec, std::move(P));
    }();
    if (!E) {
      R.failOp(J.Kind + ": " + E.error().str());
      continue;
    }
    bool Count = Traced && countersAllowed(J.C);
    if (Count)
      E->attach(&Counters);
    Result<SessionRun> S = runSession(*E, J.C, false, Tr, I + 1);
    JobSpan.end();
    uint64_t T1 = nowNs();
    if (!S) {
      R.failOp(J.Kind + ": " + S.error().str());
      continue;
    }
    std::string Bad =
        checkOutcome(S->Out.Status, S->Out.Behaviour, J.Expected);
    if (!Bad.empty()) {
      R.failOp(J.Kind + ": " + Bad);
      continue;
    }
    CountedRuns += Count;
    Ops.push_back({J.Kind, Traced, T1 - T0});
    if (!Traced) {
      ByKind[J.Kind].Instr += S->Out.Behaviour.Instructions;
      ByKind[J.Kind].StepNs += S->StepNs;
      StepByCell[cellName(J.C)].first += S->StepNs;
      StepByCell[cellName(J.C)].second += S->StepCpuNs;
      ++RunsByCell[cellName(J.C)];
    }
  }
  uint64_t WallNs = nowNs() - Start;

  latencyMetrics(R, Ops, WallNs);
  std::vector<double> Rates;
  for (const auto &[Kind, K] : ByKind)
    if (K.StepNs)
      Rates.push_back(static_cast<double>(K.Instr) * 1e3 /
                      static_cast<double>(K.StepNs));
  R.EndToEnd.set("minstr_per_s", geomean(Rates), "Minstr/s");

  if (T) {
    for (const auto &[Cell, WC] : StepByCell) {
      double N = static_cast<double>(RunsByCell[Cell]);
      R.Layer.set(Cell + ".step_wall_ms", WC.first * 1e-6 / N, "ms");
      R.Layer.set(Cell + ".step_cpu_ms", WC.second * 1e-6 / N, "ms");
    }
    ffiMetrics(R, Counters, CountedRuns);
    overheadMetric(R, Ops);
    spanMetrics(R, *T, O);
  }
}
