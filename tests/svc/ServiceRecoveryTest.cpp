//===- tests/svc/ServiceRecoveryTest.cpp - crash recovery via the journal -----===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
// The durability contract of the write-ahead journal, exercised the way
// a crash exercises it: build a Service on a journal, drive jobs into
// queued/paused states, destroy the Service object *without settling
// them* (destruction is crash-equivalent for queued-with-no-workers and
// paused jobs — nothing settles, nothing extra is journaled), then build
// a fresh Service on the same file and require the recovered jobs to
// finish with byte-identical output and a bit-identical StateDigest.
// The end-to-end kill -9 version of the same story runs in
// tests/svc/cluster_smoke.sh.
//
//===----------------------------------------------------------------------===//

#include "svc/Service.h"

#include "stack/Apps.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <string>
#include <unistd.h>

using namespace silver;
using namespace silver::svc;

namespace {

struct TempJournal {
  std::string Path;
  explicit TempJournal(const std::string &Name) {
    Path = testing::TempDir() + "silver-recovery-" + Name + "-" +
           std::to_string(::getpid()) + ".jrnl";
    std::remove(Path.c_str());
  }
  ~TempJournal() { std::remove(Path.c_str()); }
};

JobSpec helloJob(stack::Level Level) {
  JobSpec S;
  S.Source = stack::helloSource();
  S.Level = Level;
  S.CommandLine = {"hello"};
  return S;
}

JobInfo submitAndWait(Service &Svc, const JobSpec &Spec,
                      uint64_t TimeoutMs = 120'000) {
  JobInfo Info = Svc.submit(Spec);
  if (Info.State == JobState::Rejected)
    return Info;
  std::optional<JobInfo> Done = Svc.waitSettled(Info.Id, TimeoutMs);
  return Done ? *Done : Info;
}

TEST(Recovery, QueuedJobsSurviveRestart) {
  TempJournal P("queued");
  uint64_t IdA = 0, IdB = 0;
  {
    ServiceOptions Opts;
    Opts.Workers = 0; // nothing drains the queue: both jobs stay Queued
    Opts.JournalPath = P.Path;
    Service Svc(Opts);
    IdA = Svc.submit(helloJob(stack::Level::Isa)).Id;
    IdB = Svc.submit(helloJob(stack::Level::Machine)).Id;
    ASSERT_NE(IdA, 0u);
    ASSERT_NE(IdB, 0u);
  } // "crash": queued jobs die with the process, journal survives

  ServiceOptions Opts;
  Opts.Workers = 2;
  Opts.JournalPath = P.Path;
  Service Svc(Opts);
  Service::JournalStats JS = Svc.journalStats();
  EXPECT_TRUE(JS.Enabled);
  EXPECT_EQ(JS.RecoveredJobs, 2u);
  EXPECT_GE(JS.ReplayedRecords, 2u);
  for (uint64_t Id : {IdA, IdB}) {
    std::optional<JobInfo> Done = Svc.waitSettled(Id, 120'000);
    ASSERT_TRUE(Done.has_value()) << "job " << Id;
    EXPECT_EQ(Done->State, JobState::Completed) << Done->Outcome.Error;
    EXPECT_EQ(Done->Outcome.Behaviour.StdoutData, "Hello, world!\n");
  }
  // Recovered ids are not recycled for new submissions.
  JobInfo Fresh = Svc.submit(helloJob(stack::Level::Isa));
  EXPECT_GT(Fresh.Id, std::max(IdA, IdB));
}

/// Pause at \p Level, crash, restart, resume: the finished job must be
/// byte- and digest-identical to an uninterrupted run.  This is the
/// recovery invariant of DESIGN.md §15 at each digest-bearing level of
/// Figure 1.
void expectPausedRecoveryExact(stack::Level Level) {
  // Uninterrupted reference run.
  stack::StateDigest WholeDigest;
  {
    Service Ref({.Workers = 1});
    JobInfo Whole = submitAndWait(Ref, helloJob(Level));
    ASSERT_EQ(Whole.State, JobState::Completed) << Whole.Outcome.Error;
    ASSERT_TRUE(Whole.Outcome.HasDigest);
    WholeDigest = Whole.Outcome.Digest;
  }

  TempJournal P(std::string("paused-") + stack::levelName(Level));
  uint64_t Id = 0;
  stack::StateDigest PauseDigest;
  uint64_t PauseInstructions = 0;
  {
    ServiceOptions Opts;
    Opts.Workers = 1;
    Opts.JournalPath = P.Path;
    Service Svc(Opts);
    JobSpec S = helloJob(Level);
    S.SliceInstructions = 500; // hello runs ~1700 instructions
    JobInfo Info = submitAndWait(Svc, S);
    ASSERT_EQ(Info.State, JobState::Paused) << Info.Outcome.Error;
    ASSERT_TRUE(Info.Outcome.HasDigest);
    Id = Info.Id;
    PauseDigest = Info.Outcome.Digest;
    PauseInstructions = Info.Outcome.Behaviour.Instructions;
  } // "crash" with the job parked: its live Executor is gone

  ServiceOptions Opts;
  Opts.Workers = 1;
  Opts.JournalPath = P.Path;
  Service Svc(Opts);
  EXPECT_EQ(Svc.journalStats().RecoveredJobs, 1u);

  // The recovered job surfaces as Paused, carrying the journaled pause
  // coordinates.
  std::optional<JobInfo> Parked = Svc.status(Id);
  ASSERT_TRUE(Parked.has_value());
  ASSERT_EQ(Parked->State, JobState::Paused);
  ASSERT_TRUE(Parked->Outcome.HasDigest);
  EXPECT_EQ(Parked->Outcome.Digest, PauseDigest);
  EXPECT_EQ(Parked->Outcome.Behaviour.Instructions, PauseInstructions);

  // Resume with a generous grant: the worker replays a fresh session to
  // the journaled instruction count, verifies the digest, and runs on.
  Result<JobInfo> R = Svc.resume(Id, 100'000'000);
  ASSERT_TRUE(bool(R)) << R.error().str();
  std::optional<JobInfo> Done = Svc.waitSettled(Id, 120'000);
  ASSERT_TRUE(Done.has_value());
  ASSERT_EQ(Done->State, JobState::Completed) << Done->Outcome.Error;
  EXPECT_EQ(Done->Outcome.Behaviour.StdoutData, "Hello, world!\n");
  ASSERT_TRUE(Done->Outcome.HasDigest);
  EXPECT_EQ(Done->Outcome.Digest, WholeDigest)
      << "recovered run diverged from the uninterrupted run";
}

TEST(Recovery, PausedJobResumesExactlyAtMachine) {
  expectPausedRecoveryExact(stack::Level::Machine);
}
TEST(Recovery, PausedJobResumesExactlyAtIsa) {
  expectPausedRecoveryExact(stack::Level::Isa);
}
TEST(Recovery, PausedJobResumesExactlyAtRtl) {
  expectPausedRecoveryExact(stack::Level::Rtl);
}
TEST(Recovery, PausedJobResumesExactlyAtVerilog) {
  expectPausedRecoveryExact(stack::Level::Verilog);
}

TEST(Recovery, SettledJobsAreNotResurrected) {
  TempJournal P("settled");
  {
    ServiceOptions Opts;
    Opts.Workers = 1;
    Opts.JournalPath = P.Path;
    Service Svc(Opts);
    JobInfo Info = submitAndWait(Svc, helloJob(stack::Level::Isa));
    ASSERT_EQ(Info.State, JobState::Completed) << Info.Outcome.Error;
  }
  ServiceOptions Opts;
  Opts.Workers = 1;
  Opts.JournalPath = P.Path;
  Service Svc(Opts);
  Service::JournalStats JS = Svc.journalStats();
  EXPECT_TRUE(JS.Enabled);
  EXPECT_EQ(JS.RecoveredJobs, 0u);
}

TEST(Recovery, TamperedDigestFailsTheJobNotTheService) {
  // A paused job whose journaled digest does not match the deterministic
  // replay must settle as Failed with a diagnostic — the service must
  // not silently resume from a state it cannot verify.
  TempJournal P("tamper");
  uint64_t Id = 0;
  {
    ServiceOptions Opts;
    Opts.Workers = 1;
    Opts.JournalPath = P.Path;
    Service Svc(Opts);
    JobSpec S = helloJob(stack::Level::Isa);
    S.SliceInstructions = 500;
    JobInfo Info = submitAndWait(Svc, S);
    ASSERT_EQ(Info.State, JobState::Paused) << Info.Outcome.Error;
    Id = Info.Id;
  }
  // Corrupt the journaled pause digest: rewrite the journal with a
  // record whose MemoryHash is flipped.
  {
    cluster::ReplayResult Replay;
    Result<cluster::Journal> J = cluster::Journal::open(P.Path, &Replay);
    ASSERT_TRUE(bool(J));
    std::vector<cluster::Record> Tampered = Replay.Records;
    bool Flipped = false;
    for (cluster::Record &R : Tampered)
      if (R.Kind == cluster::RecordKind::Pause && R.HasDigest) {
        R.Digest.MemoryHash ^= 1;
        Flipped = true;
      }
    ASSERT_TRUE(Flipped) << "no pause record journaled";
    ASSERT_TRUE(bool(J->compact(Tampered)));
  }
  ServiceOptions Opts;
  Opts.Workers = 1;
  Opts.JournalPath = P.Path;
  Service Svc(Opts);
  ASSERT_EQ(Svc.journalStats().RecoveredJobs, 1u);
  Result<JobInfo> R = Svc.resume(Id, 100'000'000);
  ASSERT_TRUE(bool(R)) << R.error().str();
  std::optional<JobInfo> Done = Svc.waitSettled(Id, 120'000);
  ASSERT_TRUE(Done.has_value());
  EXPECT_EQ(Done->State, JobState::Failed);
  EXPECT_NE(Done->Outcome.Error.find("digest mismatch"), std::string::npos)
      << Done->Outcome.Error;
  // The service itself is fine: fresh work still runs.
  JobInfo Fresh = submitAndWait(Svc, helloJob(stack::Level::Isa));
  EXPECT_EQ(Fresh.State, JobState::Completed) << Fresh.Outcome.Error;
}

/// Where an uninterrupted run ends and where a 500-instruction slice
/// parks the same job: the coordinates the hand-built journals below
/// carry.
struct RealRun {
  JobInfo Whole;
  JobInfo Parked;
};

RealRun realRun(stack::Level Level) {
  Service Svc({.Workers = 1});
  RealRun Run;
  Run.Whole = submitAndWait(Svc, helloJob(Level));
  JobSpec S = helloJob(Level);
  S.SliceInstructions = 500; // hello runs ~1700 instructions
  Run.Parked = submitAndWait(Svc, S);
  EXPECT_EQ(Run.Whole.State, JobState::Completed) << Run.Whole.Outcome.Error;
  EXPECT_EQ(Run.Parked.State, JobState::Paused) << Run.Parked.Outcome.Error;
  EXPECT_TRUE(Run.Parked.Outcome.HasDigest);
  return Run;
}

cluster::Record submitRecord(uint64_t Id, const JobSpec &Spec) {
  cluster::Record R;
  R.Kind = cluster::RecordKind::Submit;
  R.JobId = Id;
  R.Spec = Spec;
  return R;
}

cluster::Record pauseRecord(uint64_t Id, const JobInfo &Parked) {
  cluster::Record R;
  R.Kind = cluster::RecordKind::Pause;
  R.JobId = Id;
  R.Instructions = Parked.Outcome.Behaviour.Instructions;
  R.SlicesRun = Parked.SlicesRun;
  R.HasDigest = Parked.Outcome.HasDigest;
  R.Digest = Parked.Outcome.Digest;
  return R;
}

cluster::Record resumeRecord(uint64_t Id, uint64_t Grant) {
  cluster::Record R;
  R.Kind = cluster::RecordKind::Resume;
  R.JobId = Id;
  R.SliceGrant = Grant;
  return R;
}

cluster::Record settleRecord(uint64_t Id, JobState Final) {
  cluster::Record R;
  R.Kind = cluster::RecordKind::Settle;
  R.JobId = Id;
  R.Final = Final;
  return R;
}

void writeJournal(const TempJournal &P,
                  const std::vector<cluster::Record> &Records) {
  Result<cluster::Journal> J = cluster::Journal::open(P.Path);
  ASSERT_TRUE(bool(J)) << J.error().str();
  ASSERT_TRUE(bool(J->compact(Records)));
}

std::vector<cluster::Record> readJournal(const TempJournal &P) {
  cluster::ReplayResult Replay;
  Result<cluster::Journal> J = cluster::Journal::open(P.Path, &Replay);
  EXPECT_TRUE(bool(J)) << J.error().str();
  EXPECT_FALSE(Replay.Truncated) << Replay.Diagnostic;
  return Replay.Records;
}

/// A paused job re-queued by a Resume before the crash: the restart
/// puts it straight back on the queue, and its first slice catches up
/// to the journaled park point, verifies the digest and runs on.
TEST(Recovery, RequeuedJobReplaysToItsParkPoint) {
  RealRun Run = realRun(stack::Level::Isa);
  TempJournal P("requeued");
  JobSpec S = helloJob(stack::Level::Isa);
  S.SliceInstructions = 500;
  writeJournal(P, {submitRecord(7, S), pauseRecord(7, Run.Parked),
                   resumeRecord(7, 100'000'000)});

  ServiceOptions Opts;
  Opts.Workers = 1;
  Opts.JournalPath = P.Path;
  Service Svc(Opts);
  EXPECT_EQ(Svc.journalStats().RecoveredJobs, 1u);
  std::optional<JobInfo> Done = Svc.waitSettled(7, 120'000);
  ASSERT_TRUE(Done.has_value());
  ASSERT_EQ(Done->State, JobState::Completed) << Done->Outcome.Error;
  EXPECT_EQ(Done->Outcome.Behaviour.StdoutData, "Hello, world!\n");
  ASSERT_TRUE(Done->Outcome.HasDigest);
  EXPECT_EQ(Done->Outcome.Digest, Run.Whole.Outcome.Digest);
}

/// Before its first slice, a recovered re-queued job shows its park
/// point through status(), as a live resumed job shows its last pause.
TEST(Recovery, RequeuedJobShowsItsParkPoint) {
  RealRun Run = realRun(stack::Level::Isa);
  TempJournal P("requeued-status");
  writeJournal(P, {submitRecord(7, helloJob(stack::Level::Isa)),
                   pauseRecord(7, Run.Parked), resumeRecord(7, 1000)});

  ServiceOptions Opts;
  Opts.Workers = 0; // nothing runs it: status() sees it before its slice
  Opts.JournalPath = P.Path;
  Service Svc(Opts);
  std::optional<JobInfo> Queued = Svc.status(7);
  ASSERT_TRUE(Queued.has_value());
  EXPECT_EQ(Queued->State, JobState::Queued);
  EXPECT_EQ(Queued->SlicesRun, Run.Parked.SlicesRun);
  ASSERT_TRUE(Queued->Outcome.HasDigest);
  EXPECT_EQ(Queued->Outcome.Digest, Run.Parked.Outcome.Digest);
  EXPECT_EQ(Queued->Outcome.Behaviour.Instructions,
            Run.Parked.Outcome.Behaviour.Instructions);
}

/// Resumes recovered job \p Id and returns its settled info.
JobInfo resumeRecovered(const TempJournal &P, uint64_t Id) {
  ServiceOptions Opts;
  Opts.Workers = 1;
  Opts.JournalPath = P.Path;
  Service Svc(Opts);
  EXPECT_EQ(Svc.journalStats().RecoveredJobs, 1u);
  Result<JobInfo> R = Svc.resume(Id, 100'000'000);
  EXPECT_TRUE(bool(R)) << R.error().str();
  std::optional<JobInfo> Done = Svc.waitSettled(Id, 120'000);
  EXPECT_TRUE(Done.has_value());
  return Done ? *Done : JobInfo{};
}

TEST(Recovery, PauseBeyondTheEndFailsAsSessionEnded) {
  RealRun Run = realRun(stack::Level::Isa);
  TempJournal P("beyond");
  JobInfo Beyond = Run.Parked;
  Beyond.Outcome.Behaviour.Instructions =
      Run.Whole.Outcome.Behaviour.Instructions + 1000;
  writeJournal(P, {submitRecord(3, helloJob(stack::Level::Isa)),
                   pauseRecord(3, Beyond)});

  JobInfo Done = resumeRecovered(P, 3);
  EXPECT_EQ(Done.State, JobState::Failed);
  EXPECT_EQ(Done.Outcome.Error.rfind("journal replay: session ended (", 0), 0u)
      << Done.Outcome.Error;
}

TEST(Recovery, PauseBelowTheIsaStartupPrefixFailsAsOvershot) {
  // An Isa session retires its startup prefix inside begin(), so a park
  // point at instruction 1 lies behind a fresh session already.
  RealRun Run = realRun(stack::Level::Isa);
  TempJournal P("overshot");
  JobInfo Early = Run.Parked;
  Early.Outcome.Behaviour.Instructions = 1;
  writeJournal(P, {submitRecord(3, helloJob(stack::Level::Isa)),
                   pauseRecord(3, Early)});

  JobInfo Done = resumeRecovered(P, 3);
  EXPECT_EQ(Done.State, JobState::Failed);
  EXPECT_EQ(Done.Outcome.Error.rfind("journal replay: session overshot ", 0),
            0u)
      << Done.Outcome.Error;
}

TEST(Recovery, RestartCompactsToOneChainPerLiveJob) {
  RealRun Run = realRun(stack::Level::Isa);
  JobInfo Later = Run.Parked;
  Later.SlicesRun += 1;
  Later.Outcome.Behaviour.Instructions += 500;
  JobSpec S = helloJob(stack::Level::Isa);
  S.SliceInstructions = 500;
  TempJournal P("compact");
  writeJournal(P, {
                      submitRecord(1, S),                    // settled
                      submitRecord(2, S),                    // queued
                      submitRecord(3, S),                    // paused twice
                      pauseRecord(3, Run.Parked),
                      resumeRecord(3, 700),
                      submitRecord(4, S),                    // re-queued
                      pauseRecord(4, Run.Parked),
                      settleRecord(1, JobState::Completed),
                      pauseRecord(3, Later),
                      submitRecord(5, S),                    // evicted
                      pauseRecord(5, Run.Parked),
                      resumeRecord(4, 900),
                      settleRecord(5, JobState::Evicted),
                  });
  {
    ServiceOptions Opts;
    Opts.Workers = 0;
    Opts.JournalPath = P.Path;
    Service Svc(Opts);
    EXPECT_EQ(Svc.journalStats().RecoveredJobs, 3u);
    EXPECT_FALSE(Svc.status(1).has_value());
    EXPECT_FALSE(Svc.status(5).has_value());
  }

  std::vector<cluster::Record> Want = {
      submitRecord(2, S),         submitRecord(3, S),
      pauseRecord(3, Later),      submitRecord(4, S),
      pauseRecord(4, Run.Parked), resumeRecord(4, 900),
  };
  std::vector<cluster::Record> Got = readJournal(P);
  ASSERT_EQ(Got.size(), Want.size());
  for (size_t I = 0; I != Want.size(); ++I)
    EXPECT_EQ(cluster::encodeRecord(Got[I]), cluster::encodeRecord(Want[I]))
        << "record " << I << " (" << cluster::recordKindName(Got[I].Kind)
        << " of job " << Got[I].JobId << ")";
}

} // namespace
