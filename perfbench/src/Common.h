//===- perfbench/src/Common.h - Shared pieces of the benchmark --*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of `silverbench` shares: the run options, the
/// report (operation counts, failures, end-to-end and per-layer metrics),
/// the six demonstration apps with their seeded inputs and C++ specs,
/// outcome checks, the committed exact counts (golden.json), one timed
/// Executor session, and small statistics helpers.
///
//===----------------------------------------------------------------------===//

#ifndef SILVERBENCH_COMMON_H
#define SILVERBENCH_COMMON_H

#include "Trace.h"

#include "obs/Counters.h"
#include "stack/Executor.h"
#include "support/Rng.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace bench {

using namespace silver;

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string ScratchDir; ///< private to this run; emptied by the caller
  std::string GoldenPath; ///< committed exact counts
};

uint64_t nowNs();       ///< steady clock
uint64_t threadCpuNs(); ///< CPU time of the calling thread

/// An ordered name -> (value, unit) table.
class Metrics {
public:
  void set(const std::string &Name, double Value, const std::string &Unit);
  /// Sets the value of an existing metric; false when there is none.
  bool update(const std::string &Name, double Value);
  bool has(const std::string &Name) const { return Index.count(Name) != 0; }
  std::string json() const;

private:
  struct Entry {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Entry> Entries;
  std::map<std::string, size_t> Index;
};

/// Everything one run produces.  attempted/failed count operations (a
/// job, or one program run in one cell); checks that are not operations
/// (exact counts, cross-level agreement) fail the run through mismatch().
struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  bool Mismatch = false;
  std::vector<std::string> Problems; ///< first few, for stderr
  Metrics EndToEnd;
  Metrics Layer;
  std::map<std::string, std::string> Context; ///< printed before the result

  void failOp(const std::string &What);   ///< a failed operation
  void mismatch(const std::string &What); ///< a failed exact/cross check
  bool correct() const { return Failed == 0 && !Mismatch; }
};

//===-- The demonstration apps ---------------------------------------===//

enum class App : uint8_t { Hello, Cat, Wc, Sort, Proof, Tin };
constexpr App AllApps[] = {App::Hello, App::Cat,   App::Wc,
                           App::Sort,  App::Proof, App::Tin};

const char *appName(App A);
const char *appSource(App A);
std::vector<std::string> appCommandLine(App A);
/// The expected stdout for \p Stdin (the C++ spec functions).
std::string appSpec(App A, const std::string &Stdin);
/// A seeded small input (the serve and oneshot job sizes).
std::string smallInput(App A, Rng &R);
/// The fixed input the committed exact counts are taken on.
std::string canonicalInput(App A);

/// A source variant: same program, plus a distinct unused binding, so it
/// has its own prepare-cache key but the same behaviour.
std::string sourceVariant(const std::string &Source, uint64_t Tag);

//===-- Execution cells ----------------------------------------------===//

/// One (level, backend) combination a program runs at.
struct Cell {
  stack::Level L = stack::Level::Isa;
  stack::BackendKind Backend = stack::BackendKind::Interp;
  stack::HdlBackendKind Hdl = stack::HdlBackendKind::Interp;
};
constexpr Cell IsaCell{stack::Level::Isa, stack::BackendKind::Interp,
                       stack::HdlBackendKind::Interp};
constexpr Cell JitCell{stack::Level::Isa, stack::BackendKind::Jit,
                       stack::HdlBackendKind::Interp};
constexpr Cell MachineCell{stack::Level::Machine, stack::BackendKind::Interp,
                           stack::HdlBackendKind::Interp};
constexpr Cell RtlCell{stack::Level::Rtl, stack::BackendKind::Interp,
                       stack::HdlBackendKind::Interp};
constexpr Cell VerilogCell{stack::Level::Verilog, stack::BackendKind::Interp,
                           stack::HdlBackendKind::Interp};
constexpr Cell CompiledCell{stack::Level::Verilog, stack::BackendKind::Interp,
                            stack::HdlBackendKind::Compiled};

/// Metric-name stem: isa, jit, machine, rtl, verilog, verilog_compiled.
const char *cellName(const Cell &C);
/// Span name of the cell's step() call (its layer is the prefix).
const char *stepSpanName(const Cell &C);
/// True when an obs::Counters may be attached (interpreter cells only:
/// any observer makes the JIT interpret).
bool countersAllowed(const Cell &C);

/// The RunSpec of \p A on \p Stdin at cell \p C.
stack::RunSpec makeSpec(const std::string &Source, App A,
                        const std::string &Stdin, const Cell &C);

/// What one session took and produced.
struct SessionRun {
  stack::Outcome Out;
  stack::StateDigest Digest; ///< set when the run took a digest
  uint64_t StepNs = 0;
  uint64_t StepCpuNs = 0;
};

/// begin(L) / step to the end / [sessionState] / finish on \p Exec, each
/// call wrapped in a span when \p T is non-null; step's wall and thread
/// CPU time are returned.
Result<SessionRun> runSession(stack::Executor &Exec, const Cell &C,
                              bool WithDigest, Tracer *T, uint64_t JobId);

/// Checks one outcome: Completed, exit code 0 (the OOM exit is an
/// error), stdout equal to \p Expected.  Returns an empty string when
/// correct, else what was wrong.
std::string checkOutcome(stack::RunStatus Status, const stack::Observed &B,
                         const std::string &Expected);

//===-- Exact counts -------------------------------------------------===//

/// golden.json: name -> exact count, as written by --write-golden.
class Golden {
public:
  Result<void> load(const std::string &Path);
  /// Compares \p Value with the committed count (a missing name is a
  /// mismatch too) and records it when it is a declared per-layer metric.
  void check(Report &R, const std::string &Name, uint64_t Value) const;

private:
  std::map<std::string, uint64_t> Counts;
};

/// The compile-side exact counts of the six apps: code bytes and the
/// optimiser statistics.  \p Out receives name -> count.
Result<void> compileCounts(std::map<std::string, uint64_t> &Out);
/// Instructions of every app on its canonical input at the Isa level.
Result<void> isaCounts(std::map<std::string, uint64_t> &Out);
/// The cycle-accurate programs of the cyclesim workload.
struct HwProgram {
  std::string Name; ///< hello, wc5, tin2
  App A;
  std::string Stdin;
};
/// The seed picks wc's text; seed 1 is the canonical input.
std::vector<HwProgram> hwPrograms(uint64_t Seed);
/// Instructions and Rtl cycles of the canonical hardware programs.
Result<void> hwCounts(std::map<std::string, uint64_t> &Out);

/// Checks \p Counts against \p G into \p R.
void checkCounts(Report &R, const Golden &G,
                 const std::map<std::string, uint64_t> &Counts);

//===-- Statistics and process facts ---------------------------------===//

double quantile(std::vector<double> V, double Q); ///< linear interpolation
double median(std::vector<double> V);
double geomean(const std::vector<double> &V);
double peakRssMb();
/// A field of /proc/self/status in its own unit (kB for Vm*), 0 if absent.
double procStatus(const std::string &Field);

/// Times \p Setup \p Times times and returns the median in seconds; the
/// last call's state is what the caller keeps.
template <typename F> double medianSetupSeconds(unsigned Times, F &&Setup) {
  std::vector<double> S;
  for (unsigned I = 0; I != Times; ++I) {
    uint64_t T0 = nowNs();
    Setup();
    S.push_back(static_cast<double>(nowNs() - T0) * 1e-9);
  }
  return median(std::move(S));
}

/// Moves the calling thread over every CPU the process may use, one CPU
/// per operation.  Other tenants slow each CPU of a shared host by a
/// different amount for seconds at a time; a single measuring thread
/// left on one CPU would carry that CPU's phase into the whole run, while
/// rotating averages over all of them.  Restores the affinity mask on
/// destruction.
class CpuRotation {
public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation &) = delete;
  CpuRotation &operator=(const CpuRotation &) = delete;
  void next();

private:
  std::vector<int> Cpus;
  size_t At = 0;
};

/// One completed operation, for the latency and overhead metrics.
struct OpSample {
  std::string Kind; ///< cell or job type: overhead is compared per kind
  bool Traced = false;
  uint64_t LatencyNs = 0;
};

/// jobs_per_s, job_p50_ms, job_p99_ms over \p Ops in \p WallNs.
void latencyMetrics(Report &R, const std::vector<OpSample> &Ops,
                    uint64_t WallNs);
/// trace.overhead_pct: per kind, median traced over median untraced
/// latency; the geometric mean of those ratios, minus one, in percent.
void overheadMetric(Report &R, const std::vector<OpSample> &Ops);

/// Per-layer metrics of a traced run from its spans: mean duration of
/// the named spans and self time per layer, per job; then writes the
/// span file into the scratch directory's parent.
void spanMetrics(Report &R, const Tracer &T, const Options &O);

/// obs::Counters-derived per-layer metrics (FFI calls per run and the
/// share of instructions retired inside FFI code).
void ffiMetrics(Report &R, const obs::Counters &C, uint64_t Runs);

/// Registers every per-layer metric at 0, so each traced run reports the
/// full list; a workload overwrites what it measures.
void declareLayerMetrics(Report &R);

/// Workload entry points.
void runServe(const Options &O, Report &R);
void runOneshot(const Options &O, Report &R);
void runLongrun(const Options &O, Report &R);
void runCyclesim(const Options &O, Report &R);

} // namespace bench

#endif // SILVERBENCH_COMMON_H
