//===- perfbench/src/Matrix.h - Programs x cells, round robin ---*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The measuring loop of the execution-bound workloads (longrun,
/// cyclesim): one Executor per (program, cell), created in set-up, and
/// repetitions that each run every (program, cell) once in a seeded
/// shuffled order, so host noise spreads over all cells instead of
/// landing on whichever ran last.  Each run is begin / step / digest /
/// finish; the caller's check sees every run.  In the traced run every
/// other repetition is traced (spans, plus obs::Counters on interpreter
/// cells), and only untraced repetitions feed the throughput samples.
///
//===----------------------------------------------------------------------===//

#ifndef SILVERBENCH_MATRIX_H
#define SILVERBENCH_MATRIX_H

#include "Common.h"

#include "obs/Counters.h"

#include <functional>

namespace bench {

struct Program {
  std::string Name;
  App A;
  std::string Stdin;
  std::string Expected;
};

class Matrix {
public:
  Matrix(std::vector<Program> Progs, std::vector<Cell> Cells)
      : Progs(std::move(Progs)), Cells(std::move(Cells)) {}

  /// Creates every Executor (compiles each program once per cell).
  Result<void> create();

  /// Checks one run of program \p P at cell \p C; returns what was wrong
  /// ("" when correct).  A non-empty answer fails the operation.
  using CheckFn =
      std::function<std::string(size_t P, size_t C, const SessionRun &)>;

  /// Runs repetitions until O.Seconds have passed (at least two).  An
  /// operation is one (program, cell) run, or with \p OpPerProgram one
  /// program at every cell (a cross-check), its cells in seeded order.
  void measure(const Options &O, Report &R, Tracer *T, bool OpPerProgram,
               const CheckFn &Check);

  /// Untraced samples of one cell.
  struct CellRuns {
    std::vector<double> StepNs;
    std::vector<double> StepCpuNs;
    uint64_t Instructions = 0; ///< of the last correct run
    uint64_t Cycles = 0;
  };
  const CellRuns &runs(size_t P, size_t C) const {
    return Runs[P * Cells.size() + C];
  }

  const std::vector<Program> &programs() const { return Progs; }
  const std::vector<Cell> &cells() const { return Cells; }
  const std::vector<OpSample> &ops() const { return Ops; }
  uint64_t wallNs() const { return WallNs; }
  const obs::Counters &counters() const { return Counters; }
  uint64_t countedRuns() const { return CountedRuns; }

  /// Median untraced step time of (P, C) in seconds; 0 without samples.
  double medianStepSeconds(size_t P, size_t C) const;

  /// <cell>.step_wall_ms and <cell>.step_cpu_ms, mean over programs.
  void stepTimeMetrics(Report &R) const;

private:
  std::vector<Program> Progs;
  std::vector<Cell> Cells;
  std::vector<stack::Executor> Execs; ///< program-major
  std::vector<CellRuns> Runs;
  std::vector<OpSample> Ops;
  uint64_t WallNs = 0;
  obs::Counters Counters{{}, stack::Executor::ffiNames()};
  uint64_t CountedRuns = 0;
};

} // namespace bench

#endif // SILVERBENCH_MATRIX_H
