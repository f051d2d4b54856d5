//===- perfbench/src/Longrun.cpp - Execution-bound runs --------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
// Three long programs (wc 1500 lines, sort 1000 lines, tin 120
// statements; all below the out-of-memory exit of the default layout)
// at Isa interp, Isa jit and Machine interp.  Each (program, cell) has
// one Executor made in set-up, so a run is boot + step + digest +
// finish and step does nearly all the work: the interpreter, the JIT and
// the machine_sem FFI oracle.  Interp and jit must agree exactly on
// stdout, instruction count and StateDigest.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Matrix.h"

#include "stack/Apps.h"

using namespace bench;

namespace {

/// The sizes are fixed and the seed picks the text: over a thousand lines
/// the work per run varies by about a percent between seeds.
std::vector<Program> longPrograms(uint64_t Seed) {
  Rng R(Seed * 0x9e3779b97f4a7c15ull + 3);
  std::vector<Program> P = {
      {"wc", App::Wc, stack::randomLines(1500, R.next32()), ""},
      {"sort", App::Sort, stack::randomLines(1000, R.next32()), ""},
      {"tin", App::Tin, stack::sampleTinProgram(120), ""}};
  for (Program &X : P)
    X.Expected = appSpec(X.A, X.Stdin);
  return P;
}

} // namespace

void bench::runLongrun(const Options &O, Report &R) {
  if (!stack::backendSupported(stack::BackendKind::Jit)) {
    R.mismatch("the JIT is not supported on this host");
    return;
  }
  const std::vector<Cell> Cells = {IsaCell, JitCell, MachineCell};
  std::unique_ptr<Matrix> M;
  double SetupS = medianSetupSeconds(5, [&] {
    M = std::make_unique<Matrix>(longPrograms(O.Seed), Cells);
    if (Result<void> C = M->create(); !C)
      R.mismatch("set-up: " + C.error().str());
  });
  R.EndToEnd.set("setup_s", SetupS, "s");
  if (!R.correct())
    return;

  // The first interp run of each program is the reference its jit runs
  // (and later interp runs) must reproduce exactly.
  struct Ref {
    bool Have = false;
    uint64_t Instructions = 0;
    stack::StateDigest Digest;
  };
  std::vector<Ref> Refs(M->programs().size());
  auto Check = [&](size_t P, size_t C, const SessionRun &S) -> std::string {
    if (Cells[C].L != stack::Level::Isa)
      return "";
    Ref &X = Refs[P];
    if (!X.Have) {
      X = {true, S.Out.Behaviour.Instructions, S.Digest};
      return "";
    }
    if (S.Out.Behaviour.Instructions != X.Instructions) {
      R.mismatch(M->programs()[P].Name + ": interp and jit instruction "
                 "counts differ");
      return "instruction count differs between interp and jit";
    }
    if (S.Digest != X.Digest) {
      R.mismatch(M->programs()[P].Name + ": interp and jit StateDigests "
                 "differ");
      return "StateDigest differs between interp and jit";
    }
    return "";
  };

  std::unique_ptr<Tracer> T;
  if (O.Trace)
    T = std::make_unique<Tracer>();
  M->measure(O, R, T.get(), false, Check);

  latencyMetrics(R, M->ops(), M->wallNs());
  std::vector<double> All;
  std::map<std::string, std::vector<double>> ByCell;
  for (size_t P = 0; P != M->programs().size(); ++P) {
    const std::string &Name = M->programs()[P].Name;
    for (size_t C = 0; C != Cells.size(); ++C) {
      double Secs = M->medianStepSeconds(P, C);
      double Rate = Secs > 0 ? M->runs(P, C).Instructions * 1e-6 / Secs : 0;
      All.push_back(Rate);
      ByCell[cellName(Cells[C])].push_back(Rate);
      R.Layer.set(std::string(cellName(Cells[C])) + ".minstr_per_s." + Name,
                  Rate, "Minstr/s");
    }
    double Isa = M->medianStepSeconds(P, 0), Jit = M->medianStepSeconds(P, 1);
    R.Layer.set("jit.speedup." + Name, Jit > 0 ? Isa / Jit : 0, "x");
  }
  R.EndToEnd.set("minstr_per_s", geomean(All), "Minstr/s");
  for (const auto &[Cell, Rates] : ByCell)
    R.Layer.set(Cell + "_minstr_per_s", geomean(Rates), "Minstr/s");

  if (T) {
    M->stepTimeMetrics(R);
    ffiMetrics(R, M->counters(), M->countedRuns());
    overheadMetric(R, M->ops());
    spanMetrics(R, *T, O);
  }
}
