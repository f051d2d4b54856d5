//===- perfbench/src/Cyclesim.cpp - The cycle-accurate levels --------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
// hello, wc-5 (96 bytes) and tin-2 at Rtl (the circuit, cpu + rtl), at Verilog
// (hdl::FastSim) and at Verilog compiled to host code (hdl/compile).
// Set-up builds the compiled simulator into a fresh artifact cache each
// time, so every run pays the same cold build.  Every run must match the
// program's Isa run (stdout, instructions, StateDigest up to the
// hardware's halt retire), and the three hardware cells must agree on
// the cycle count.  An operation is one program cross-checked at all
// three levels, as someone checking the hardware levels runs it.
//
//===----------------------------------------------------------------------===//

#include "Common.h"
#include "Matrix.h"

#include "cpu/Core.h"
#include "hdl/compile/CompiledSim.h"
#include "rtl/ToVerilog.h"

#include <cstdlib>
#include <filesystem>

using namespace bench;

namespace {

/// The Isa run a hardware run must reproduce (the hardware retires one
/// more instruction: the halt self-jump).
struct IsaRef {
  std::string Stdout;
  uint64_t Instructions = 0;
  stack::StateDigest Digest;
};

/// The oracle's mask (fuzz/Oracle.cpp): the hardware retires one more
/// halt self-jump, which writes the link register and the flags.
bool sameHwState(const stack::StateDigest &Isa, stack::StateDigest Hw) {
  Hw.Regs[isa::NumRegs - 1] = Isa.Regs[isa::NumRegs - 1];
  Hw.Carry = Isa.Carry;
  Hw.Overflow = Isa.Overflow;
  return Hw == Isa;
}

} // namespace

void bench::runCyclesim(const Options &O, Report &R) {
  if (!hdl::compiledSimAvailable()) {
    R.mismatch("no usable host C++ compiler for the compiled simulator");
    return;
  }
  const std::vector<Cell> Cells = {RtlCell, VerilogCell, CompiledCell};
  std::vector<Program> Progs;
  for (const HwProgram &H : hwPrograms(O.Seed))
    Progs.push_back({H.Name, H.A, H.Stdin, appSpec(H.A, H.Stdin)});

  std::unique_ptr<Matrix> M;
  std::vector<IsaRef> Refs;
  std::vector<double> BuildS;
  unsigned SetupIndex = 0;
  double SetupS = medianSetupSeconds(5, [&] {
    // A fresh artifact cache: the compiled simulator is built cold.
    std::string Cache =
        O.ScratchDir + "/hdl-cache-" + std::to_string(++SetupIndex);
    std::filesystem::remove_all(Cache);
    ::setenv("SILVER_HDL_CACHE", Cache.c_str(), 1);
    uint64_t B0 = nowNs();
    cpu::SilverCore Core = cpu::buildSilverCore();
    Result<hdl::VModule> Mod = rtl::toVerilog(Core.Circuit);
    if (!Mod) {
      R.mismatch("set-up: " + Mod.error().str());
      return;
    }
    Result<std::shared_ptr<hdl::CompiledModule>> Built =
        hdl::CompiledModule::create(*Mod);
    if (!Built) {
      R.mismatch("set-up: " + Built.error().str());
      return;
    }
    BuildS.push_back(static_cast<double>(nowNs() - B0) * 1e-9);

    Refs.clear();
    for (const Program &P : Progs) {
      Result<stack::Executor> E = stack::Executor::create(
          makeSpec(appSource(P.A), P.A, P.Stdin, IsaCell));
      Result<SessionRun> S =
          E ? runSession(*E, IsaCell, true, nullptr, 0)
            : Result<SessionRun>(E.error());
      if (!S) {
        R.mismatch("set-up: isa reference of " + P.Name + ": " +
                   S.error().str());
        return;
      }
      Refs.push_back({S->Out.Behaviour.StdoutData,
                      S->Out.Behaviour.Instructions, S->Digest});
    }
    M = std::make_unique<Matrix>(Progs, Cells);
    if (Result<void> C = M->create(); !C)
      R.mismatch("set-up: " + C.error().str());
  });
  R.EndToEnd.set("setup_s", SetupS, "s");
  R.Layer.set("hdl.compiled.build_s", median(BuildS), "s");
  if (!R.correct())
    return;

  // The first hardware run of each program fixes the cycle count the
  // other cells must reproduce.
  std::vector<uint64_t> RefCycles(Progs.size(), 0);
  auto Check = [&](size_t P, size_t C, const SessionRun &S) -> std::string {
    const stack::Observed &B = S.Out.Behaviour;
    const IsaRef &X = Refs[P];
    std::string Bad;
    if (B.StdoutData != X.Stdout)
      Bad = "stdout differs from the isa run";
    else if (B.Instructions != X.Instructions + 1)
      Bad = "instructions " + std::to_string(B.Instructions) +
            " are not the isa run's " + std::to_string(X.Instructions) +
            " plus the halt retire";
    else if (!sameHwState(X.Digest, S.Digest))
      Bad = "StateDigest differs from the isa run";
    else if (RefCycles[P] == 0)
      RefCycles[P] = B.Cycles;
    else if (B.Cycles != RefCycles[P])
      Bad = "cycles " + std::to_string(B.Cycles) +
            " differ from the first hardware run's " +
            std::to_string(RefCycles[P]);
    if (!Bad.empty())
      R.mismatch(Progs[P].Name + "/" + cellName(Cells[C]) + ": " + Bad);
    return Bad;
  };

  std::unique_ptr<Tracer> T;
  if (O.Trace)
    T = std::make_unique<Tracer>();
  M->measure(O, R, T.get(), true, Check);

  latencyMetrics(R, M->ops(), M->wallNs());
  std::vector<double> AllInstr;
  std::map<std::string, std::vector<double>> KcyclesByCell;
  static const char *const LayerStem[] = {"rtl", "hdl.verilog",
                                          "hdl.compiled"};
  for (size_t P = 0; P != Progs.size(); ++P)
    for (size_t C = 0; C != Cells.size(); ++C) {
      double Secs = M->medianStepSeconds(P, C);
      const Matrix::CellRuns &CR = M->runs(P, C);
      double Instr = Secs > 0 ? CR.Instructions * 1e-6 / Secs : 0;
      double Kcyc = Secs > 0 ? CR.Cycles * 1e-3 / Secs : 0;
      AllInstr.push_back(Instr);
      KcyclesByCell[cellName(Cells[C])].push_back(Kcyc);
      R.Layer.set(std::string(LayerStem[C]) + ".kcycles_per_s." +
                      Progs[P].Name,
                  Kcyc, "kcycles/s");
    }
  R.EndToEnd.set("minstr_per_s", geomean(AllInstr), "Minstr/s");
  for (const auto &[Cell, Rates] : KcyclesByCell)
    R.Layer.set(Cell + "_kcycles_per_s", geomean(Rates), "kcycles/s");

  if (T) {
    M->stepTimeMetrics(R);
    overheadMetric(R, M->ops());
    spanMetrics(R, *T, O);
  }
}
