//===- perfbench/src/Matrix.cpp - Programs x cells, round robin -------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "Matrix.h"

using namespace bench;


Result<void> Matrix::create() {
  Execs.clear();
  for (const Program &P : Progs)
    for (const Cell &C : Cells) {
      Result<stack::Executor> E = stack::Executor::create(
          makeSpec(appSource(P.A), P.A, P.Stdin, C));
      if (!E)
        return Error(P.Name + "/" + cellName(C) + ": " + E.error().str());
      Execs.push_back(E.take());
    }
  Runs.assign(Execs.size(), {});
  return {};
}

void Matrix::measure(const Options &O, Report &R, Tracer *T,
                     bool OpPerProgram, const CheckFn &Check) {
  // Each operation is a list of (program, cell) slots run back to back.
  std::vector<std::vector<size_t>> OpSlots;
  for (size_t P = 0; P != Progs.size(); ++P)
    for (size_t C = 0; C != Cells.size(); ++C) {
      if (C == 0 || !OpPerProgram)
        OpSlots.emplace_back();
      OpSlots.back().push_back(P * Cells.size() + C);
    }
  auto Shuffle = [Order = Rng(O.Seed * 0x2545f4914f6cdd1dull + 7)](
                     auto &V) mutable {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[Order.below(static_cast<uint32_t>(I))]);
  };
  uint64_t Start = nowNs();
  uint64_t Deadline = Start + static_cast<uint64_t>(O.Seconds * 1e9);
  uint64_t JobId = 0;
  CpuRotation Rotation;
  for (unsigned Rep = 0; Rep < 2 || nowNs() < Deadline; ++Rep) {
    Shuffle(OpSlots);
    bool Traced = T && Rep % 2 == 1;
    Tracer *Tr = Traced ? T : nullptr;
    for (std::vector<size_t> &Op : OpSlots) {
      Shuffle(Op);
      size_t P0 = Op.front() / Cells.size();
      std::string Kind = OpPerProgram ? Progs[P0].Name
                                      : Progs[P0].Name + "/" +
                                            cellName(Cells[Op.front() %
                                                           Cells.size()]);
      ++R.Attempted;
      ++JobId;
      std::string Bad;
      uint64_t T0 = nowNs();
      Span JobSpan(Tr, "job", JobId);
      for (size_t Slot : Op) {
        size_t P = Slot / Cells.size(), C = Slot % Cells.size();
        bool Count = Traced && countersAllowed(Cells[C]);
        stack::Executor &E = Execs[Slot];
        Rotation.next();
        E.attach(Count ? &Counters : nullptr);
        Result<SessionRun> S = runSession(E, Cells[C], true, Tr, JobId);
        E.attach(nullptr);
        if (!S)
          Bad = S.error().str();
        else if (Bad = checkOutcome(S->Out.Status, S->Out.Behaviour,
                                    Progs[P].Expected);
                 Bad.empty())
          Bad = Check(P, C, *S);
        if (!Bad.empty()) {
          Bad = Progs[P].Name + "/" + cellName(Cells[C]) + ": " + Bad;
          break;
        }
        CountedRuns += Count;
        if (!Traced) {
          CellRuns &CR = Runs[Slot];
          CR.StepNs.push_back(static_cast<double>(S->StepNs));
          CR.StepCpuNs.push_back(static_cast<double>(S->StepCpuNs));
          CR.Instructions = S->Out.Behaviour.Instructions;
          CR.Cycles = S->Out.Behaviour.Cycles;
        }
      }
      JobSpan.end();
      if (!Bad.empty()) {
        R.failOp(Bad);
        continue;
      }
      Ops.push_back({Kind, Traced, nowNs() - T0});
    }
  }
  WallNs = nowNs() - Start;
}

double Matrix::medianStepSeconds(size_t P, size_t C) const {
  const CellRuns &CR = runs(P, C);
  return CR.StepNs.empty() ? 0 : median(CR.StepNs) * 1e-9;
}

void Matrix::stepTimeMetrics(Report &R) const {
  for (size_t C = 0; C != Cells.size(); ++C) {
    double Wall = 0, Cpu = 0;
    for (size_t P = 0; P != Progs.size(); ++P) {
      const CellRuns &CR = runs(P, C);
      if (CR.StepNs.empty())
        continue;
      Wall += median(CR.StepNs) * 1e-6;
      Cpu += median(CR.StepCpuNs) * 1e-6;
    }
    double N = static_cast<double>(Progs.size());
    R.Layer.set(std::string(cellName(Cells[C])) + ".step_wall_ms", Wall / N,
                "ms");
    R.Layer.set(std::string(cellName(Cells[C])) + ".step_cpu_ms", Cpu / N,
                "ms");
  }
}
