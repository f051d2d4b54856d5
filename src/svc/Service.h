//===- svc/Service.h - Concurrent batch-execution engine --------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The in-process serving engine behind silverd: a fair priority order
/// of queued jobs (JobQueue) in front of a pool of worker threads, each
/// stepping stack::Executor sessions in budgeted slices.
///
///   - submit() admits a JobSpec (or rejects it with backpressure when
///     the queue is full, the client is over its share, or the service
///     is draining) and returns a job id the client polls or blocks on.
///   - Compilation is memoized in a shared stack::PrepareCache, so
///     repeated submissions of the same program skip the compiler.
///   - A job whose slice or wall-clock budget runs out parks as Paused:
///     its Executor (the live session) stays in the job record, tagged
///     with its StateDigest, until resume() re-enqueues it, cancel()
///     kills it, or the idle sweep evicts it.
///   - drain() stops admissions and blocks until every queued and
///     running job has settled — in-flight work is finished, never
///     killed (the silverd SIGTERM path).
///   - statsJson() dumps lifecycle counts, per-level work totals,
///     p50/p99 service latency, prepare-cache hit rates, and (with
///     ServiceOptions::Instrument) the obs::Counters of all workers
///     merged via Counters::mergeFrom.
///
/// Threading: one mutex guards the job table, the order of queued jobs
/// and the metrics; a job is in the order iff its state is Queued.
/// Workers wait on their own condition variable under that mutex, and
/// hold it only to claim and settle a slice, never while stepping.  Each
/// worker owns a private obs::Counters on the hot path and folds it
/// into its lock-protected total between slices, so instrumentation
/// never contends.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_SVC_SERVICE_H
#define SILVER_SVC_SERVICE_H

#include "obs/Counters.h"
#include "stack/PrepareCache.h"
#include "svc/Job.h"
#include "svc/JobQueue.h"
#include "svc/Metrics.h"
#include "svc/cluster/Journal.h"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <initializer_list>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>

namespace silver {
namespace svc {

struct ServiceOptions {
  /// Worker threads.  0 is valid and means nothing executes — jobs sit
  /// in the queue — which is what the backpressure tests use.
  unsigned Workers = 4;
  size_t QueueDepth = 64;
  /// Instruction budget for jobs that do not set one.
  uint64_t DefaultMaxSteps = 2'000'000'000ull;
  /// Granularity of cancel/wall-clock checks while stepping: a worker
  /// steps at most this many instructions between checks.
  uint64_t ChunkInstructions = 1'000'000;
  /// Paused sessions idle longer than this are evicted by the sweep
  /// (run opportunistically on worker and service activity).  0
  /// disables eviction.
  uint64_t IdleEvictMs = 5u * 60u * 1000u;
  /// Settled jobs kept for status queries; older terminal records are
  /// pruned so the job table stays bounded under sustained traffic.  The
  /// latest settled job is always kept, so 0 behaves as 1.
  size_t FinishedHistoryCap = 4096;
  size_t PrepareCacheCapacity = 32;
  /// Attach per-worker obs::Counters to every run (costs the observer
  /// dispatch on the hot path; off by default).
  bool Instrument = false;
  /// Per-client fair-share admission cap, as a fraction of QueueDepth:
  /// one client may hold max(1, ceil(QueueDepth x share)) queued jobs.
  /// 1.0 disables the quota; round-robin service order between clients
  /// (svc/JobQueue.h) is always on.
  double MaxClientShare = 1.0;
  /// Write-ahead job journal (svc/cluster/Journal.h).  Empty disables
  /// durability.  When set, every admission/pause/resume/settle appends
  /// a record, and construction replays an existing file: queued and
  /// paused jobs from a killed process are re-admitted, whatever the
  /// queue limits, paused ones tagged for deterministic replay to their
  /// journaled StateDigest.
  std::string JournalPath = {};
  /// fdatasync the journal after every append — survive machine crashes,
  /// not just process kills.  Off by default (a SIGKILLed process's
  /// completed write()s already survive in the page cache).
  bool JournalSync = false;
};

class Service {
public:
  explicit Service(ServiceOptions Opts = {});
  ~Service(); ///< lets the workers drain the queue, then joins them

  Service(const Service &) = delete;
  Service &operator=(const Service &) = delete;

  /// Admits a job.  The returned info is either Queued (with the new
  /// job id) or Rejected (queue full / client quota / draining;
  /// Outcome.Error says which) — submission never blocks.
  JobInfo submit(const JobSpec &Spec);

  /// Latest snapshot of a job; nullopt for ids never issued or pruned.
  std::optional<JobInfo> status(uint64_t Id) const;

  /// Blocks until the job settles (terminal or Paused) or \p TimeoutMs
  /// elapses; returns the latest snapshot either way.
  std::optional<JobInfo> waitSettled(uint64_t Id, uint64_t TimeoutMs) const;

  /// Re-enqueues a Paused job with a fresh slice grant
  /// (0 = the grant from the original spec).  Errors when the job is
  /// not paused or submit() would refuse it (the same texts) — the
  /// session stays parked in those cases.
  Result<JobInfo> resume(uint64_t Id, uint64_t SliceInstructions = 0);

  /// Cancels a queued, paused or running job (a running job settles at
  /// its next chunk boundary).  Cancelling an already-settled job is a
  /// no-op returning its info.
  Result<JobInfo> cancel(uint64_t Id);

  /// One chunk of a job's stdout stream (streamOutput()).
  struct StreamChunk {
    std::string Data;    ///< bytes [Offset, Offset + Data.size())
    uint64_t Offset = 0; ///< where Data starts in the stdout stream
    bool Final = false;  ///< job is terminal and Data reaches the end
    JobState State = JobState::Queued; ///< job state at snapshot time
  };

  /// Returns the job's stdout bytes from \p Offset on (at most
  /// \p MaxBytes), blocking up to \p WaitMs for more to arrive.  Jobs
  /// submitted with LiveOutput publish incrementally at every worker
  /// chunk; others publish at each slice boundary.  An Offset past the
  /// current end returns an empty non-final chunk clamped to the end.
  /// Errors only for ids never issued or pruned.
  Result<StreamChunk> streamOutput(uint64_t Id, uint64_t Offset,
                                   uint64_t WaitMs,
                                   size_t MaxBytes = 1u << 20) const;

  /// Server-side accounting hook: one streamed data frame went out.
  void noteStreamFrame() { StreamFrames.fetch_add(1, std::memory_order_relaxed); }

  /// Durability counters (zero / disabled when JournalPath is empty).
  struct JournalStats {
    bool Enabled = false;
    uint64_t ReplayedRecords = 0; ///< intact records found at startup
    uint64_t RecoveredJobs = 0;   ///< jobs re-admitted from them
    uint64_t AppendedRecords = 0;
    uint64_t AppendErrors = 0;
    bool TruncatedTail = false; ///< startup replay cut off a damaged tail
    std::string Diagnostic;     ///< what the damage was, when Truncated
  };
  JournalStats journalStats() const;

  /// Service-wide metrics as a single-line JSON object.
  std::string statsJson() const;

  /// Stops admissions and blocks until no job is queued or running.
  /// Paused sessions are left parked (they are not in flight).
  void drain();
  bool draining() const;

  size_t queueDepth() const;

  /// Evicts paused sessions idle for ServiceOptions::IdleEvictMs;
  /// returns how many.  Runs opportunistically, but is public so
  /// callers (and tests) can force a sweep.
  unsigned evictIdleSessions();

  const ServiceOptions &options() const { return Opts; }
  stack::PrepareCache::CacheStats prepareCacheStats() const {
    return Cache.stats();
  }
  /// The merged per-worker counters (empty unless Instrument).
  obs::Counters mergedCounters() const;

private:
  struct Job;
  struct Worker;
  struct SliceResult;

  /// Why one more queued job for \p Client would be refused (draining,
  /// queue full, client over its share), or null when it is admitted.
  /// The one admission decision, taken by submit() and resume().
  const char *refusalLocked(const std::string &Client) const;
  void workerMain(unsigned Index);
  /// One slice of \p J.  A fresh session (null \p Exec) first catches
  /// up to \p ParkPoint when that records a pause.
  SliceResult executeSlice(Job &J, const JobSpec &Spec,
                           std::unique_ptr<stack::Executor> Exec,
                           uint64_t SliceGrant, const JobOutcome &ParkPoint,
                           Worker *W);
  /// Jobs in the table whose state is one of \p States.
  unsigned countLocked(std::initializer_list<JobState> States) const;
  void settleLocked(Job &J, JobState S);
  void accountLocked(Job &J, const stack::Observed &B);
  void journalLocked(const cluster::Record &R);
  void recoverFromJournal();
  void publishStream(Job &J, const std::string &Cumulative);

  ServiceOptions Opts;
  size_t ClientQuota = 0; ///< queued jobs one client may hold
  stack::PrepareCache Cache;

  mutable std::mutex Mu;
  /// Wakes waitSettled/streamOutput/drain on settles, pauses and output.
  mutable std::condition_variable Cv;
  /// Wakes idle workers on a push or at shutdown.
  std::condition_variable WorkCv;
  std::unordered_map<uint64_t, std::unique_ptr<Job>> Jobs;
  JobQueue Queue; ///< the Queued jobs, in service order
  std::deque<uint64_t> FinishedOrder; ///< terminal jobs, oldest first
  uint64_t NextId = 1;
  bool Draining = false;
  bool Stopping = false; ///< workers exit once the queue is empty

  struct Counts {
    uint64_t Submitted = 0;
    uint64_t Completed = 0;
    uint64_t TimedOut = 0;
    uint64_t Cancelled = 0;
    uint64_t Failed = 0;
    uint64_t Evicted = 0;
    uint64_t Rejected = 0;
  } Count;
  std::array<LevelStats, 5> Levels; ///< by stack::Level
  LatencyHistogram Latency;
  std::chrono::steady_clock::time_point StartedAt;

  /// Durability state.  Jrnl appends happen under Mu (the record order
  /// must match the state-transition order it mirrors).
  cluster::Journal Jrnl;
  uint64_t ReplayedRecords = 0;
  uint64_t RecoveredJobs = 0;
  uint64_t JournalAppendErrors = 0;
  bool JournalTruncated = false;
  std::string JournalDiagnostic;

  /// Streaming accounting: frames counted by the server (lock-free),
  /// published bytes counted under Mu.
  std::atomic<uint64_t> StreamFrames{0};
  uint64_t StreamBytes = 0;

  std::vector<std::unique_ptr<Worker>> WorkerState;
  std::vector<std::thread> Threads;
};

} // namespace svc
} // namespace silver

#endif // SILVER_SVC_SERVICE_H
