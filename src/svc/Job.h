//===- svc/Job.h - Batch-execution service job model ------------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The job vocabulary shared by the in-process service engine
/// (svc/Service.h), the wire protocol (svc/Protocol.h), and the client
/// library (svc/Client.h): what a client submits, the lifecycle states a
/// job moves through, and the outcome a settled job reports.
///
/// Lifecycle:
///
///   submit ──> Queued ──> Running ──┬─> Completed   (program terminated)
///                 ^                 ├─> TimedOut    (instr/cycle budget)
///                 │                 ├─> Failed      (compile/exec error)
///                 │                 ├─> Cancelled
///                 │                 └─> Paused      (slice or wall-clock
///                 │                        │          budget used up)
///                 └──────── resume ────────┤
///                                          └─> Evicted  (idle too long)
///
/// Paused is the only non-terminal settled state: the session (the
/// stack::Executor mid-run) stays alive in the service's session store,
/// tagged with its stack::StateDigest, until the client resumes it, the
/// client cancels it, or the idle-eviction sweep reclaims it.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_SVC_JOB_H
#define SILVER_SVC_JOB_H

#include "stack/Executor.h"

#include <string>
#include <vector>

namespace silver {
namespace svc {

/// Queue lanes: 0 is most urgent, NumPriorities-1 is batch work.
constexpr unsigned NumPriorities = 4;

/// What a client submits: a program plus its world and its budgets.
struct JobSpec {
  std::string Source;
  stack::Level Level = stack::Level::Isa;
  std::vector<std::string> CommandLine = {"prog"};
  std::string StdinData;
  uint64_t MaxSteps = 0;  ///< total instruction budget; 0 = service default
  uint64_t MaxCycles = 0; ///< hardware-level cycle budget; 0 = derived
  /// Instructions granted per request: the job runs this much, then
  /// parks as Paused until resumed.  0 = run to completion (or budget).
  uint64_t SliceInstructions = 0;
  /// Wall-clock cap per slice in milliseconds (enforced between step
  /// chunks, so overshoot is bounded by one chunk).  0 = none.
  uint64_t WallMsBudget = 0;
  uint8_t Priority = 1; ///< 0 (urgent) .. NumPriorities-1 (batch)
  /// ISA execution backend for the software levels (stack::BackendKind);
  /// part of the wire format and the worker's prepare-cache key.  Jit
  /// degrades to the interpreter on hosts without native support.
  stack::BackendKind Backend = stack::BackendKind::Interp;
  /// Verilog-level simulator backend (stack::HdlBackendKind); part of
  /// the wire format and the prepare-cache key.  Compiled runs the
  /// core's simulator linked into the build, so it needs no host C++
  /// compiler at run time.
  stack::HdlBackendKind Hdl = stack::HdlBackendKind::Interp;
  /// Fairness key: jobs sharing a ClientId share one tenant's queue
  /// quota and one round-robin slot per priority lane (svc/JobQueue.h).
  /// Empty is a valid tenant (the anonymous client).
  std::string ClientId;
  /// Publish stdout incrementally (one delta per worker chunk) so a
  /// Stream request delivers output while the job runs instead of at
  /// settle.  Off by default: live publishing snapshots the session's
  /// output every chunk, which costs a copy of stdout-so-far.
  bool LiveOutput = false;
};

enum class JobState : uint8_t {
  Queued,    ///< waiting for a worker
  Running,   ///< a worker is stepping it
  Paused,    ///< slice/wall budget used up; session parked, resumable
  Completed, ///< the program terminated
  TimedOut,  ///< the job's total instruction or cycle budget ran out
  Cancelled, ///< cancelled by the client
  Failed,    ///< compile or execution error (see JobOutcome::Error)
  Evicted,   ///< paused session reclaimed by the idle sweep
  Rejected,  ///< never admitted: queue full or service draining
};
const char *jobStateName(JobState S);

/// True for states a job can never leave (everything but Queued,
/// Running and Paused).
bool isTerminal(JobState S);

/// True for states a blocking submit/status/resume waits for: the job is
/// not currently queued or being stepped.
bool isSettled(JobState S);

/// What a settled job reports.
struct JobOutcome {
  stack::Observed Behaviour; ///< complete when Completed, prefix otherwise
  /// Architectural snapshot at the last pause or at completion — the tag
  /// a client can use to verify resume continuity across requests.
  stack::StateDigest Digest;
  bool HasDigest = false;
  std::string Error; ///< Failed/Rejected detail
};

/// A job's externally visible record (the status response).
struct JobInfo {
  uint64_t Id = 0;
  JobState State = JobState::Queued;
  stack::Level Level = stack::Level::Isa;
  uint8_t Priority = 1;
  uint64_t SlicesRun = 0; ///< worker slices spent on the job so far
  JobOutcome Outcome;
};

/// The one outcome-JSON shape shared by silverc --json, silver-client
/// --json and the service smoke test, so every script parses the same
/// keys: {"status":...,"level":...,"exit_code":...,"instructions":...,
/// "cycles":...,"stdout_bytes":...,"stderr_bytes":...,"stdout":...,
/// "stderr":...}.  Single line, no trailing newline.
std::string outcomeJson(const std::string &Status, const std::string &Level,
                        const stack::Observed &B);

} // namespace svc
} // namespace silver

#endif // SILVER_SVC_JOB_H
