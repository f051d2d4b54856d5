//===- stack/Stack.h - End-to-end verified-stack runner ---------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public end-to-end API (the paper's milestone, theorems (6)-(8)):
/// compile a MiniCake program, build the bare-metal memory image, and run
/// it at each level of Figure 1 —
///   Spec      the reference interpreter (cakeml_sem),
///   Machine   machine_sem with the FFI interference oracle,
///   Isa       the Silver ISA Next function with real system calls,
///   Rtl       the circuit-level Silver core (cycle accurate),
///   Verilog   the generated Verilog AST under verilog_sem —
/// and check that every level produces the same observable behaviour:
/// the FFI request trace (ffi::IoTrace), stdout, stderr and the exit
/// code.  The out-of-memory exit is permitted as a prefix behaviour,
/// exactly as extend_with_oom licenses.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_STACK_STACK_H
#define SILVER_STACK_STACK_H

#include "analysis/ImageAudit.h"
#include "cml/Compiler.h"
#include "machine/MachineSem.h"
#include "support/Result.h"
#include "sys/Image.h"

#include <memory>
#include <string>
#include <vector>

namespace silver {
namespace stack {

/// Which ISA execution backend the software levels (Machine, Isa) step
/// with.  Interp is the reference predecoded interpreter; Jit is the
/// baseline template JIT (isa/jit/Jit.h), which compiles hot basic
/// blocks to host code and degrades to the interpreter on unsupported
/// hosts.  The observable behaviour and the per-slice StateDigests are
/// identical by contract; only throughput differs.
enum class BackendKind : uint8_t { Interp, Jit };

/// Stable identifier ("interp", "jit") for CLIs, logs, and cache keys.
const char *backendKindName(BackendKind B);

/// Parses a backend name; returns false when \p Name is unknown.
bool parseBackendKind(const std::string &Name, BackendKind &Out);

/// True when the requested backend executes natively on this host; a
/// false answer for Jit means the run silently falls back to the
/// interpreter (callers surface a diagnostic, not an error).
bool backendSupported(BackendKind B);

/// Which simulator backend the Verilog level steps with.  Interp is
/// hdl::FastSim, which runs the module as an instruction tape; Compiled
/// is that tape printed as C++ for the core's module (hdl/compile) at
/// build time and linked in, so it runs on every host.  Behaviour and
/// digests are identical — enforced by the compiled-vs-interpreted
/// differential level.
enum class HdlBackendKind : uint8_t { Interp, Compiled };

/// Stable identifier ("interp", "compiled") for CLIs, logs, cache keys.
const char *hdlBackendKindName(HdlBackendKind B);

/// Parses an hdl backend name; returns false when \p Name is unknown.
bool parseHdlBackendKind(const std::string &Name, HdlBackendKind &Out);

/// How to execute: backend choice plus the budgets, one object so the
/// whole execution configuration travels together through
/// Executor::prepare, the batch-service protocol, and the CLIs.
struct ExecOptions {
  BackendKind Backend = BackendKind::Interp;
  /// Simulator backend for the Verilog level (ignored elsewhere).
  HdlBackendKind Hdl = HdlBackendKind::Interp;
  /// Block-execution count at which the JIT compiles a block; 0 keeps
  /// the backend default (isa::jit::JitOptions).  The fuzz oracle sets
  /// 1 so its differential runs compile every reachable block.
  uint32_t JitHotThreshold = 0;
  uint64_t MaxSteps = 2'000'000'000ull; ///< instruction budget (all levels)
  /// Clock-cycle budget for the Rtl/Verilog levels; 0 derives a generous
  /// bound from MaxSteps (see Executor::cycleBudget).
  uint64_t MaxCycles = 0;
};

/// What to run: a source program plus its world (command line + stdin)
/// and the execution configuration.
struct RunSpec {
  std::string Source;
  std::vector<std::string> CommandLine = {"prog"};
  std::string StdinData;
  cml::CompileOptions Compile;
  ExecOptions Exec;
};

/// Execution level (Figure 1).
enum class Level : uint8_t { Spec, Machine, Isa, Rtl, Verilog };
const char *levelName(Level L);

/// Observable outcome of one run.
struct Observed {
  std::string StdoutData;
  std::string StderrData;
  uint8_t ExitCode = 0;
  bool Terminated = false;
  uint64_t Instructions = 0; ///< ISA instructions (Spec: eval steps)
  uint64_t Cycles = 0;       ///< clock cycles (Rtl/Verilog only)
};

/// Why an execution stopped.
enum class RunStatus : uint8_t {
  Completed, ///< the program halted / terminated
  Paused,    ///< a step() quota was used up; the session is resumable
  Timeout,   ///< the instruction or cycle budget ran out
};
const char *runStatusName(RunStatus S);

/// Final outcome of an execution: how it stopped, the observable
/// behaviour so far (complete when Status == Completed, the prefix
/// otherwise), and the FFI calls the run made, in order.  Faults and
/// environment protocol violations are reported as errors, not
/// outcomes.
struct Outcome {
  RunStatus Status = RunStatus::Completed;
  Observed Behaviour;
  ffi::IoTrace Trace;
};

/// Compiles once; reusable across levels.  Snapshot is the program's
/// boot snapshot (sys::BootSnapshot), shared by every run and every
/// Prepared of the same program; when it is null (the layout does not
/// fit, or the caller assembled the Prepared by hand) Executor::begin
/// builds it on first use.
struct Prepared {
  cml::Compiled Program;
  sys::ImageSpec Image;
  std::shared_ptr<const sys::BootSnapshot> Snapshot;
};
Result<Prepared> prepare(const RunSpec &Spec);

/// The boot snapshot of \p Program under \p Spec's layout, or null when
/// the layout does not fit (boot reports that error with its context).
std::shared_ptr<const sys::BootSnapshot>
snapshotFor(const cml::Compiled &Program, const RunSpec &Spec);

/// Builds the bootable image for \p P and statically audits it against
/// the installed-predicate approximation (analysis/ImageAudit.h): region
/// placement, decodability of reachable code, jump-target containment,
/// the W^X store discipline, and the syscall clobber set.  The returned
/// report is the audit outcome; the build itself failing is an error.
Result<analysis::AuditReport> auditPrepared(const Prepared &P);

/// Runs the reference interpreter (the Spec level) directly; never
/// compiles.
Result<Outcome> runSpecLevel(const RunSpec &Spec);

/// The one behaviour comparison: whether \p Run behaves as \p Ref — the
/// same stdout, stderr, termination and exit code, and the same FFI
/// trace.  With \p LicenseOom, a Run that exits with the OOM code where
/// Ref does not needs only a prefix of Ref's trace and of its streams
/// (extend_with_oom).  The error names the first difference, for the
/// trace the first differing event.
Result<void> compareBehaviour(const Outcome &Run, const Outcome &Ref,
                              bool LicenseOom);

/// The per-level half of checkEndToEnd: compareBehaviour of \p Run, at
/// level \p L, against the spec run \p Spec with the OOM licence.
Result<void> checkAgainstSpec(Level L, const Outcome &Run,
                              const Outcome &Spec);

/// The cross-level check (theorem (8)): compiles once, runs the given
/// levels on one stack::Executor, and verifies that each completes with
/// the spec's behaviour, FFI trace included, or exits early with the OOM
/// code (checkAgainstSpec).  Returns the per-level behaviours in order.
Result<std::vector<Observed>> checkEndToEnd(const RunSpec &Spec,
                                            const std::vector<Level> &Levels);

} // namespace stack
} // namespace silver

#endif // SILVER_STACK_STACK_H
