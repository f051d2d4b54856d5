//===- svc/Service.cpp - Concurrent batch-execution engine --------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "svc/Service.h"

#include "stack/Stack.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

using namespace silver;
using namespace silver::svc;

using cluster::Record;
using cluster::RecordKind;
using Clock = std::chrono::steady_clock;

//===----------------------------------------------------------------------===//
// Internal records
//===----------------------------------------------------------------------===//

struct Service::Job {
  explicit Job(const JobSpec &S)
      : Spec(S), SubmitAt(Clock::now()), LastTouch(SubmitAt),
        SliceGrant(S.SliceInstructions) {
    Info.Level = S.Level;
    Info.Priority = std::min<uint8_t>(S.Priority, NumPriorities - 1);
  }

  JobSpec Spec;
  /// Also the job's park point once it has paused:
  /// Outcome.Behaviour.Instructions, HasDigest and Digest are where the
  /// last slice parked it.  A fresh session for a job with a park point
  /// (its session died with an earlier process) catches up to it.
  JobInfo Info;
  /// The parked session while Paused; moved out to the worker while
  /// Running; null otherwise.
  std::unique_ptr<stack::Executor> Exec;
  std::atomic<bool> CancelRequested{false};
  Clock::time_point SubmitAt;
  Clock::time_point LastTouch;
  uint64_t SliceGrant = 0; ///< instructions for the next slice; 0 = all
  /// Instructions/cycles already folded into the level stats (the
  /// Observed counts are cumulative across slices).
  uint64_t AccountedInstructions = 0;
  uint64_t AccountedCycles = 0;
  /// Cumulative stdout so far, for streamOutput(): grown incrementally
  /// per worker chunk when Spec.LiveOutput, synced at every slice
  /// boundary regardless.
  std::string Stream;

  /// The journal record of transition \p K, built from the job as it
  /// stands after the transition.  The live service journals every
  /// transition through it, and startup compaction rewrites each
  /// recovered job's chain through it.
  Record record(RecordKind K) const {
    Record R;
    R.Kind = K;
    R.JobId = Info.Id;
    switch (K) {
    case RecordKind::Submit:
      R.Spec = Spec;
      break;
    case RecordKind::Pause:
      R.Instructions = Info.Outcome.Behaviour.Instructions;
      R.SlicesRun = Info.SlicesRun;
      R.HasDigest = Info.Outcome.HasDigest;
      R.Digest = Info.Outcome.Digest;
      break;
    case RecordKind::Resume:
      R.SliceGrant = SliceGrant;
      break;
    case RecordKind::Settle:
      R.Final = Info.State;
      break;
    }
    return R;
  }

  /// The inverse of record() for the transitions after Submit, as
  /// recovery folds a journal (Settle drops the job instead).
  void fold(const Record &R) {
    if (R.Kind == RecordKind::Pause) {
      Info.State = JobState::Paused;
      Info.SlicesRun = R.SlicesRun;
      Info.Outcome.Behaviour.Instructions = R.Instructions;
      Info.Outcome.HasDigest = R.HasDigest;
      Info.Outcome.Digest = R.Digest;
    } else if (R.Kind == RecordKind::Resume) {
      Info.State = JobState::Queued;
      SliceGrant = R.SliceGrant ? R.SliceGrant : Spec.SliceInstructions;
    }
  }
};

struct Service::Worker {
  /// Hot path: attached to the Executor while stepping; no locks.
  obs::Counters SliceCounters;
  /// Cold path: SliceCounters folds in here between slices; statsJson
  /// merges these under the per-worker mutex.
  std::mutex TotalsMu;
  obs::Counters Totals;
};

struct Service::SliceResult {
  JobState State = JobState::Failed;
  JobOutcome Outcome;
  std::unique_ptr<stack::Executor> Exec; ///< non-null when Paused
};

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

/// Queued jobs one client may hold: a share of the queue, but at least
/// one slot, or a small queue with a small share could admit nothing.
static size_t clientQuotaOf(size_t QueueDepth, double Share) {
  if (Share >= 1.0 || Share <= 0.0)
    return QueueDepth;
  return std::max<size_t>(1, static_cast<size_t>(std::ceil(
                                 static_cast<double>(QueueDepth) * Share)));
}

Service::Service(ServiceOptions OptsIn)
    : Opts(OptsIn), Cache(Opts.PrepareCacheCapacity), StartedAt(Clock::now()) {
  Opts.QueueDepth = std::max<size_t>(1, Opts.QueueDepth);
  Opts.ChunkInstructions = std::max<uint64_t>(1, Opts.ChunkInstructions);
  ClientQuota = clientQuotaOf(Opts.QueueDepth, Opts.MaxClientShare);
  // Replay-and-re-admit happens strictly before any worker exists, so
  // recovery needs no locks and recovered jobs are claimed exactly like
  // fresh ones.
  recoverFromJournal();
  WorkerState.reserve(Opts.Workers);
  Threads.reserve(Opts.Workers);
  for (unsigned I = 0; I != Opts.Workers; ++I)
    WorkerState.push_back(std::make_unique<Worker>());
  for (unsigned I = 0; I != Opts.Workers; ++I)
    Threads.emplace_back([this, I] { workerMain(I); });
}

Service::~Service() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stopping = true;
  }
  WorkCv.notify_all();
  for (std::thread &T : Threads)
    T.join();
}

//===----------------------------------------------------------------------===//
// Front door
//===----------------------------------------------------------------------===//

const char *Service::refusalLocked(const std::string &Client) const {
  if (Draining)
    return "service is draining";
  if (Queue.size() >= Opts.QueueDepth)
    return "queue full";
  if (Queue.clientDepth(Client) >= ClientQuota)
    return "client quota exceeded";
  return nullptr;
}

JobInfo Service::submit(const JobSpec &Spec) {
  auto J = std::make_unique<Job>(Spec);
  std::lock_guard<std::mutex> Lock(Mu);
  if (const char *Refusal = refusalLocked(Spec.ClientId)) {
    J->Info.State = JobState::Rejected;
    J->Info.Outcome.Error = Refusal;
    ++Count.Rejected;
    return J->Info;
  }
  J->Info.Id = NextId++;
  ++Count.Submitted;
  journalLocked(J->record(RecordKind::Submit));
  Queue.push(J->Info.Id, J->Info.Priority, Spec.ClientId);
  WorkCv.notify_one();
  JobInfo Info = J->Info;
  Jobs[Info.Id] = std::move(J);
  return Info;
}

std::optional<JobInfo> Service::status(uint64_t Id) const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Jobs.find(Id);
  if (It == Jobs.end())
    return std::nullopt;
  return It->second->Info;
}

std::optional<JobInfo> Service::waitSettled(uint64_t Id,
                                            uint64_t TimeoutMs) const {
  std::unique_lock<std::mutex> Lock(Mu);
  auto Settled = [&] {
    auto It = Jobs.find(Id);
    return It == Jobs.end() || isSettled(It->second->Info.State);
  };
  Cv.wait_for(Lock, std::chrono::milliseconds(TimeoutMs), Settled);
  auto It = Jobs.find(Id);
  if (It == Jobs.end())
    return std::nullopt;
  return It->second->Info;
}

Result<JobInfo> Service::resume(uint64_t Id, uint64_t SliceInstructions) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Jobs.find(Id);
  if (It == Jobs.end())
    return Error("unknown job " + std::to_string(Id));
  Job &J = *It->second;
  if (J.Info.State != JobState::Paused)
    return Error(std::string("job is ") + jobStateName(J.Info.State) +
                 ", not paused");
  if (const char *Refusal = refusalLocked(J.Spec.ClientId))
    return Error(Refusal);
  J.Info.State = JobState::Queued;
  J.SliceGrant =
      SliceInstructions ? SliceInstructions : J.Spec.SliceInstructions;
  J.LastTouch = Clock::now();
  journalLocked(J.record(RecordKind::Resume));
  Queue.push(Id, J.Info.Priority, J.Spec.ClientId);
  WorkCv.notify_one();
  return J.Info;
}

Result<JobInfo> Service::cancel(uint64_t Id) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Jobs.find(Id);
  if (It == Jobs.end())
    return Error("unknown job " + std::to_string(Id));
  Job &J = *It->second;
  switch (J.Info.State) {
  case JobState::Queued:
    // Settle now, and free its place in the queue at once.
    Queue.erase(Id);
    settleLocked(J, JobState::Cancelled);
    break;
  case JobState::Running:
    // The worker converts this at its next chunk boundary.
    J.CancelRequested.store(true, std::memory_order_relaxed);
    break;
  case JobState::Paused:
    J.Exec.reset();
    settleLocked(J, JobState::Cancelled);
    break;
  default:
    break; // already settled: idempotent
  }
  return J.Info;
}

void Service::drain() {
  std::unique_lock<std::mutex> Lock(Mu);
  Draining = true;
  Cv.wait(Lock, [this] {
    return countLocked({JobState::Queued, JobState::Running}) == 0;
  });
}

bool Service::draining() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Draining;
}

size_t Service::queueDepth() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Queue.size();
}

unsigned Service::evictIdleSessions() {
  if (Opts.IdleEvictMs == 0)
    return 0;
  std::lock_guard<std::mutex> Lock(Mu);
  Clock::time_point Now = Clock::now();
  unsigned Evicted = 0;
  for (auto &Entry : Jobs) {
    Job &J = *Entry.second;
    if (J.Info.State != JobState::Paused)
      continue;
    auto IdleMs = std::chrono::duration_cast<std::chrono::milliseconds>(
                      Now - J.LastTouch)
                      .count();
    if (static_cast<uint64_t>(IdleMs) < Opts.IdleEvictMs)
      continue;
    J.Exec.reset();
    settleLocked(J, JobState::Evicted);
    ++Evicted;
  }
  return Evicted;
}

//===----------------------------------------------------------------------===//
// Settling (always under Mu)
//===----------------------------------------------------------------------===//

void Service::journalLocked(const Record &R) {
  if (!Jrnl.isOpen())
    return;
  if (Result<void> A = Jrnl.append(R); !A)
    ++JournalAppendErrors;
}

unsigned Service::countLocked(std::initializer_list<JobState> States) const {
  unsigned N = 0;
  for (const auto &Entry : Jobs)
    for (JobState S : States)
      N += Entry.second->Info.State == S;
  return N;
}

void Service::settleLocked(Job &J, JobState S) {
  J.Info.State = S;
  journalLocked(J.record(RecordKind::Settle));
  switch (S) {
  case JobState::Completed:
    ++Count.Completed;
    break;
  case JobState::TimedOut:
    ++Count.TimedOut;
    break;
  case JobState::Cancelled:
    ++Count.Cancelled;
    break;
  case JobState::Failed:
    ++Count.Failed;
    break;
  case JobState::Evicted:
    ++Count.Evicted;
    break;
  default:
    break;
  }
  size_t L = static_cast<size_t>(J.Info.Level);
  ++Levels[L].Jobs;
  Latency.record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           J.SubmitAt)
          .count()));
  // Prune the oldest records but never J, the newest: the caller still
  // holds it (cancel returns its info, the eviction sweep iterates the
  // table at it).
  FinishedOrder.push_back(J.Info.Id);
  const size_t Keep = std::max<size_t>(Opts.FinishedHistoryCap, 1);
  while (FinishedOrder.size() > Keep) {
    Jobs.erase(FinishedOrder.front());
    FinishedOrder.pop_front();
  }
  Cv.notify_all();
}

void Service::accountLocked(Job &J, const stack::Observed &B) {
  size_t L = static_cast<size_t>(J.Info.Level);
  ++Levels[L].Slices;
  Levels[L].Instructions += B.Instructions - J.AccountedInstructions;
  Levels[L].Cycles += B.Cycles - J.AccountedCycles;
  J.AccountedInstructions = B.Instructions;
  J.AccountedCycles = B.Cycles;
}

//===----------------------------------------------------------------------===//
// Workers
//===----------------------------------------------------------------------===//

void Service::workerMain(unsigned Index) {
  Worker &W = *WorkerState[Index];
  while (true) {
    Job *J = nullptr;
    std::unique_ptr<stack::Executor> Exec;
    JobSpec Spec;
    uint64_t SliceGrant = 0;
    JobOutcome ParkPoint;
    {
      // Pop and claim in one critical section: a job in the queue is
      // Queued, so it is in the table and nobody else holds it.
      std::unique_lock<std::mutex> Lock(Mu);
      WorkCv.wait(Lock, [this] { return Stopping || Queue.size() != 0; });
      std::optional<uint64_t> Id = Queue.pop();
      if (!Id)
        return; // stopping, and the queue has drained
      J = Jobs.at(*Id).get();
      J->Info.State = JobState::Running;
      Exec = std::move(J->Exec);
      Spec = J->Spec;
      SliceGrant = J->SliceGrant;
      // No live session: the outcome is empty for a fresh job and the
      // journaled park point for a recovered one.
      if (!Exec)
        ParkPoint = J->Info.Outcome;
    }

    SliceResult R = executeSlice(*J, Spec, std::move(Exec), SliceGrant,
                                 ParkPoint, Opts.Instrument ? &W : nullptr);

    if (Opts.Instrument) {
      std::lock_guard<std::mutex> Lock(W.TotalsMu);
      W.Totals.mergeFrom(W.SliceCounters);
      W.SliceCounters.reset();
    }

    {
      std::lock_guard<std::mutex> Lock(Mu);
      ++J->Info.SlicesRun;
      J->Info.Outcome = std::move(R.Outcome);
      accountLocked(*J, J->Info.Outcome.Behaviour);
      const std::string &Stdout = J->Info.Outcome.Behaviour.StdoutData;
      if (Stdout.size() > J->Stream.size()) {
        StreamBytes += Stdout.size() - J->Stream.size();
        J->Stream = Stdout;
      }
      if (R.State == JobState::Paused) {
        J->Exec = std::move(R.Exec);
        J->Info.State = JobState::Paused;
        J->LastTouch = Clock::now();
        // Journal the park point so the job survives a process death
        // from here.
        journalLocked(J->record(RecordKind::Pause));
        Cv.notify_all();
      } else {
        settleLocked(*J, R.State);
      }
    }

    evictIdleSessions();
  }
}

Service::SliceResult
Service::executeSlice(Job &J, const JobSpec &Spec,
                      std::unique_ptr<stack::Executor> Exec,
                      uint64_t SliceGrant, const JobOutcome &ParkPoint,
                      Worker *W) {
  SliceResult R;
  auto Fail = [&R](std::string Why) {
    R.State = JobState::Failed;
    R.Outcome.Error = std::move(Why);
    return std::move(R);
  };
  const bool Fresh = !Exec;

  // First slice: compile (through the cache) and open the session.
  if (!Exec) {
    stack::RunSpec Run;
    Run.Source = Spec.Source;
    Run.CommandLine = Spec.CommandLine;
    Run.StdinData = Spec.StdinData;
    Run.Exec.MaxSteps = Spec.MaxSteps ? Spec.MaxSteps : Opts.DefaultMaxSteps;
    Run.Exec.MaxCycles = Spec.MaxCycles;
    Run.Exec.Backend = Spec.Backend;
    Run.Exec.Hdl = Spec.Hdl;

    Result<stack::Prepared> P = Cache.prepare(Run);
    if (!P)
      return Fail("prepare: " + P.error().str());
    Exec = std::make_unique<stack::Executor>(
        stack::Executor::fromPrepared(std::move(Run), P.take()));
    if (W)
      Exec->attach(&W->SliceCounters);

    // The Spec level has no machine steps: one-shot, no session.
    if (Spec.Level == stack::Level::Spec) {
      Result<stack::Outcome> Out = Exec->run(stack::Level::Spec);
      if (!Out)
        return Fail(Out.error().str());
      R.State = JobState::Completed;
      R.Outcome.Behaviour = Out->Behaviour;
      return R;
    }

    if (Result<void> B = Exec->begin(Spec.Level); !B)
      return Fail(B.error().str());
  } else if (W) {
    // A resumed session keeps emitting into the current worker's
    // counters (a job may migrate between workers; merge makes the
    // split attribution sum correctly).
    Exec->attach(&W->SliceCounters);
  }

  // The slice runs in two phases.  Catch-up comes first when a fresh
  // session serves a job that already has a park point: the session
  // that held it died with an earlier process, so the new one re-runs
  // to the park point's retired-instruction count and must land on its
  // StateDigest.  Execution is a deterministic function of the prepared
  // image and the inputs, so a mismatch means the journal and the
  // program disagree, and the job fails loudly rather than continue from
  // the wrong state.  Catch-up runs with no grant and no deadline; the
  // slice grant and the wall deadline start at the park point.
  const uint64_t CatchUpTo = Fresh ? ParkPoint.Behaviour.Instructions : 0;
  bool CatchingUp = CatchUpTo != 0;
  uint64_t SliceLeft = UINT64_MAX;
  Clock::time_point Deadline = Clock::time_point::max();
  auto StartSlice = [&] {
    CatchingUp = false;
    SliceLeft = SliceGrant ? SliceGrant : UINT64_MAX;
    if (Spec.WallMsBudget)
      Deadline = Clock::now() + std::chrono::milliseconds(Spec.WallMsBudget);
  };
  if (!CatchingUp)
    StartSlice();

  auto Park = [&](JobState S) {
    if (Result<stack::StateDigest> D = Exec->sessionState()) {
      R.Outcome.Digest = *D;
      R.Outcome.HasDigest = true;
    }
    if (S == JobState::Paused) {
      if (Result<stack::Observed> B = Exec->sessionBehaviour())
        R.Outcome.Behaviour = *B;
      R.Exec = std::move(Exec);
    } else {
      Result<stack::Outcome> Out = Exec->finish();
      if (Out)
        R.Outcome.Behaviour = Out->Behaviour;
    }
    R.State = S;
  };

  while (true) {
    if (J.CancelRequested.load(std::memory_order_relaxed)) {
      Park(JobState::Cancelled);
      return R;
    }
    Result<uint64_t> Before = Exec->sessionInstructions();
    if (!Before)
      return Fail(Before.error().str());
    if (CatchingUp && *Before >= CatchUpTo) {
      if (*Before > CatchUpTo)
        return Fail("journal replay: session overshot the pause point (" +
                    std::to_string(*Before) + " > " +
                    std::to_string(CatchUpTo) + " instructions)");
      if (ParkPoint.HasDigest) {
        Result<stack::StateDigest> D = Exec->sessionState();
        if (!D)
          return Fail(D.error().str());
        if (*D != ParkPoint.Digest)
          return Fail("journal replay: state digest mismatch at "
                      "instruction " +
                      std::to_string(CatchUpTo));
      }
      StartSlice();
    }
    uint64_t Chunk = std::min(CatchingUp ? CatchUpTo - *Before : SliceLeft,
                              Opts.ChunkInstructions);
    Result<stack::RunStatus> S = Exec->step(Chunk);
    if (!S) // step() tears the session down on faults; nothing to park
      return Fail((CatchingUp ? "journal replay: " : "") + S.error().str());
    if (Result<uint64_t> After = Exec->sessionInstructions())
      SliceLeft -= std::min(*After - *Before, SliceLeft);

    // Live streaming: publish the cumulative stdout at every chunk
    // boundary while the session is alive (terminal states publish via
    // the settle path, which sees the final behaviour).
    if (Spec.LiveOutput && *S == stack::RunStatus::Paused)
      if (Result<stack::Observed> B = Exec->sessionBehaviour())
        publishStream(J, B->StdoutData);

    if (CatchingUp && *S != stack::RunStatus::Paused)
      return Fail("journal replay: session ended (" +
                  std::string(stack::runStatusName(*S)) +
                  ") before the journaled pause point at " +
                  std::to_string(CatchUpTo) + " instructions");
    switch (*S) {
    case stack::RunStatus::Completed:
      Park(JobState::Completed);
      return R;
    case stack::RunStatus::Timeout:
      Park(JobState::TimedOut);
      return R;
    case stack::RunStatus::Paused:
      if (SliceLeft == 0 || Clock::now() >= Deadline) {
        Park(JobState::Paused);
        return R;
      }
      break; // next chunk
    }
  }
}

//===----------------------------------------------------------------------===//
// Streaming
//===----------------------------------------------------------------------===//

void Service::publishStream(Job &J, const std::string &Cumulative) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Cumulative.size() > J.Stream.size()) {
    StreamBytes += Cumulative.size() - J.Stream.size();
    J.Stream = Cumulative;
    Cv.notify_all();
  }
}

Result<Service::StreamChunk> Service::streamOutput(uint64_t Id,
                                                   uint64_t Offset,
                                                   uint64_t WaitMs,
                                                   size_t MaxBytes) const {
  std::unique_lock<std::mutex> Lock(Mu);
  auto Ready = [&] {
    auto It = Jobs.find(Id);
    if (It == Jobs.end())
      return true; // unknown/pruned: report that now, not after a wait
    const Job &J = *It->second;
    return J.Stream.size() > Offset ||
           (J.Info.State != JobState::Queued &&
            J.Info.State != JobState::Running);
  };
  if (WaitMs)
    Cv.wait_for(Lock, std::chrono::milliseconds(WaitMs), Ready);
  auto It = Jobs.find(Id);
  if (It == Jobs.end())
    return Error("unknown job " + std::to_string(Id));
  const Job &J = *It->second;
  StreamChunk C;
  C.State = J.Info.State;
  C.Offset = std::min<uint64_t>(Offset, J.Stream.size());
  C.Data = J.Stream.substr(static_cast<size_t>(C.Offset), MaxBytes);
  bool Terminal = J.Info.State != JobState::Queued &&
                  J.Info.State != JobState::Running &&
                  J.Info.State != JobState::Paused;
  C.Final = Terminal && C.Offset + C.Data.size() == J.Stream.size();
  return C;
}

//===----------------------------------------------------------------------===//
// Journal recovery
//===----------------------------------------------------------------------===//

void Service::recoverFromJournal() {
  if (Opts.JournalPath.empty())
    return;
  cluster::ReplayResult RR;
  Result<cluster::Journal> Opened =
      cluster::Journal::open(Opts.JournalPath, &RR, Opts.JournalSync);
  if (!Opened) {
    JournalDiagnostic = Opened.error().str();
    std::fprintf(stderr, "silverd: %s; running without durability\n",
                 JournalDiagnostic.c_str());
    return;
  }
  Jrnl = Opened.take();
  ReplayedRecords = RR.Records.size();
  JournalTruncated = RR.Truncated;
  if (RR.Truncated) {
    JournalDiagnostic = RR.Diagnostic;
    std::fprintf(stderr, "silverd: journal %s: %s\n",
                 Opts.JournalPath.c_str(), RR.Diagnostic.c_str());
  }
  if (RR.Records.empty())
    return;

  // Fold the record sequence into the Job records the live service
  // keeps.  Settled jobs drop out (their outcomes died with the old
  // process; history is not what the journal durably promises — pending
  // work is).
  std::map<uint64_t, std::unique_ptr<Job>> Live; // ordered: oldest first
  for (const Record &R : RR.Records) {
    if (R.Kind == RecordKind::Submit) {
      std::unique_ptr<Job> &J = Live[R.JobId] = std::make_unique<Job>(R.Spec);
      J->Info.Id = R.JobId;
    } else if (auto It = Live.find(R.JobId); It != Live.end()) {
      if (R.Kind == RecordKind::Settle)
        Live.erase(It);
      else
        It->second->fold(R);
    }
  }

  // Startup compaction: rewrite the file as one minimal
  // Submit(+Pause)(+Resume) chain per surviving job, before re-admission
  // appends anything new.
  std::vector<Record> Compacted;
  for (const auto &Entry : Live) {
    const Job &J = *Entry.second;
    Compacted.push_back(J.record(RecordKind::Submit));
    bool Paused = J.Info.State == JobState::Paused;
    if (Paused || J.Info.Outcome.Behaviour.Instructions) {
      Compacted.push_back(J.record(RecordKind::Pause));
      if (!Paused)
        Compacted.push_back(J.record(RecordKind::Resume));
    }
  }
  if (Result<void> C = Jrnl.compact(Compacted); !C) {
    ++JournalAppendErrors;
    std::fprintf(stderr, "silverd: journal compaction failed: %s\n",
                 C.error().str().c_str());
  }

  // Re-admit, oldest first.  Queued jobs go back on the queue with no
  // admission check: the limits bound new work, not work the daemon
  // already accepted.  Paused jobs park with no live session, so the
  // worker catches a resumed one up to its park point before its slice.
  for (auto &Entry : Live) {
    uint64_t Id = Entry.first;
    Job &J = *(Jobs[Id] = std::move(Entry.second));
    NextId = std::max(NextId, Id + 1);
    ++RecoveredJobs;
    if (J.Info.State == JobState::Queued)
      Queue.push(Id, J.Info.Priority, J.Spec.ClientId);
  }
}

Service::JournalStats Service::journalStats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  JournalStats S;
  S.Enabled = Jrnl.isOpen();
  S.ReplayedRecords = ReplayedRecords;
  S.RecoveredJobs = RecoveredJobs;
  S.AppendedRecords = Jrnl.appendedRecords();
  S.AppendErrors = JournalAppendErrors;
  S.TruncatedTail = JournalTruncated;
  S.Diagnostic = JournalDiagnostic;
  return S;
}

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

obs::Counters Service::mergedCounters() const {
  obs::Counters Merged;
  for (const std::unique_ptr<Worker> &W : WorkerState) {
    std::lock_guard<std::mutex> Lock(W->TotalsMu);
    Merged.mergeFrom(W->Totals);
  }
  return Merged;
}

std::string Service::statsJson() const {
  std::lock_guard<std::mutex> Lock(Mu);
  auto UptimeNs = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      Clock::now() - StartedAt)
                      .count();
  double UptimeSec = static_cast<double>(UptimeNs) * 1e-9;

  std::string Out = "{";
  Out += "\"schema\":\"silverd-stats-v1\"";
  Out += ",\"uptime_ms\":" + std::to_string(UptimeNs / 1'000'000);
  Out += ",\"workers\":" + std::to_string(Opts.Workers);
  Out += ",\"queue_depth\":" + std::to_string(Queue.size());
  Out += ",\"draining\":" + std::string(Draining ? "true" : "false");

  Out += ",\"jobs\":{";
  Out += "\"submitted\":" + std::to_string(Count.Submitted);
  Out += ",\"completed\":" + std::to_string(Count.Completed);
  Out += ",\"timed_out\":" + std::to_string(Count.TimedOut);
  Out += ",\"cancelled\":" + std::to_string(Count.Cancelled);
  Out += ",\"failed\":" + std::to_string(Count.Failed);
  Out += ",\"evicted\":" + std::to_string(Count.Evicted);
  Out += ",\"rejected\":" + std::to_string(Count.Rejected);
  Out += ",\"active\":" +
         std::to_string(countLocked({JobState::Queued, JobState::Running}));
  Out += ",\"paused\":" + std::to_string(countLocked({JobState::Paused}));
  Out += "}";

  stack::PrepareCache::CacheStats CS = Cache.stats();
  Out += ",\"prepare_cache\":{";
  Out += "\"hits\":" + std::to_string(CS.Hits);
  Out += ",\"misses\":" + std::to_string(CS.Misses);
  Out += ",\"evictions\":" + std::to_string(CS.Evictions);
  Out += ",\"entries\":" + std::to_string(CS.Entries);
  Out += "}";

  Out += ",\"journal\":{";
  Out += std::string("\"enabled\":") + (Jrnl.isOpen() ? "true" : "false");
  Out += ",\"replayed_records\":" + std::to_string(ReplayedRecords);
  Out += ",\"recovered_jobs\":" + std::to_string(RecoveredJobs);
  Out += ",\"appended_records\":" + std::to_string(Jrnl.appendedRecords());
  Out += ",\"append_errors\":" + std::to_string(JournalAppendErrors);
  Out += std::string(",\"truncated_tail\":") +
         (JournalTruncated ? "true" : "false");
  Out += "}";

  Out += ",\"stream\":{";
  Out += "\"frames_sent\":" +
         std::to_string(StreamFrames.load(std::memory_order_relaxed));
  Out += ",\"bytes_published\":" + std::to_string(StreamBytes);
  Out += "}";

  Out += ",\"latency\":{";
  Out += "\"count\":" + std::to_string(Latency.count());
  Out += ",\"p50_ns\":" + std::to_string(Latency.quantileNs(0.50));
  Out += ",\"p99_ns\":" + std::to_string(Latency.quantileNs(0.99));
  Out += "}";

  Out += ",\"levels\":{";
  bool First = true;
  for (size_t L = 0; L != Levels.size(); ++L) {
    const LevelStats &S = Levels[L];
    if (S.Slices == 0 && S.Jobs == 0)
      continue;
    if (!First)
      Out += ",";
    First = false;
    double InstrPerSec =
        UptimeSec > 0 ? static_cast<double>(S.Instructions) / UptimeSec : 0;
    Out += jsonQuote(stack::levelName(static_cast<stack::Level>(L)));
    Out += ":{\"jobs\":" + std::to_string(S.Jobs);
    Out += ",\"slices\":" + std::to_string(S.Slices);
    Out += ",\"instructions\":" + std::to_string(S.Instructions);
    Out += ",\"cycles\":" + std::to_string(S.Cycles);
    Out += ",\"instr_per_sec\":" +
           std::to_string(static_cast<uint64_t>(InstrPerSec));
    Out += "}";
  }
  Out += "}";

  if (Opts.Instrument)
    Out += ",\"counters\":" + mergedCounters().toJson();
  Out += "}";
  return Out;
}
