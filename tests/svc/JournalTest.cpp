//===- tests/svc/JournalTest.cpp - write-ahead job journal --------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "svc/cluster/Journal.h"

#include "gtest/gtest.h"

#include <cstdio>
#include <fstream>
#include <unistd.h>
#include <string>
#include <vector>

using namespace silver;
using namespace silver::svc;
using namespace silver::svc::cluster;

namespace {

/// A fresh journal path per test, removed on destruction.
struct TempPath {
  std::string Path;
  explicit TempPath(const std::string &Name) {
    Path = testing::TempDir() + "silver-journal-" + Name + "-" +
           std::to_string(::getpid()) + ".jrnl";
    std::remove(Path.c_str());
    std::remove((Path + ".compact").c_str());
  }
  ~TempPath() {
    std::remove(Path.c_str());
    std::remove((Path + ".compact").c_str());
  }
};

Record submitRecord(uint64_t Id) {
  Record R;
  R.Kind = RecordKind::Submit;
  R.JobId = Id;
  R.Spec.Source = "val _ = print \"hi\\n\"";
  R.Spec.Level = stack::Level::Isa;
  R.Spec.CommandLine = {"prog", "x"};
  R.Spec.StdinData = std::string("in\0put", 6);
  R.Spec.Priority = 2;
  R.Spec.ClientId = "tenant";
  R.Spec.LiveOutput = true;
  return R;
}

Record pauseRecord(uint64_t Id) {
  Record R;
  R.Kind = RecordKind::Pause;
  R.JobId = Id;
  R.Instructions = 123456;
  R.SlicesRun = 3;
  R.HasDigest = true;
  R.Digest.Pc = 0x4000;
  R.Digest.Carry = true;
  R.Digest.Regs[5] = 0xfeedface;
  R.Digest.MemoryHash = 0x1122334455667788ull;
  R.Digest.MemoryBytes = 1 << 22;
  return R;
}

std::vector<uint8_t> fileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In),
                              std::istreambuf_iterator<char>());
}

void writeBytes(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
}

TEST(Journal, EveryRecordKindRoundTrips) {
  Record Submit = submitRecord(7);
  Record Pause = pauseRecord(7);
  Record Resume;
  Resume.Kind = RecordKind::Resume;
  Resume.JobId = 7;
  Resume.SliceGrant = 50'000;
  Record Settle;
  Settle.Kind = RecordKind::Settle;
  Settle.JobId = 7;
  Settle.Final = JobState::Cancelled;

  for (const Record &R : {Submit, Pause, Resume, Settle}) {
    Result<Record> D = decodeRecord(encodeRecord(R));
    ASSERT_TRUE(bool(D)) << recordKindName(R.Kind) << ": " << D.error().str();
    EXPECT_EQ(D->Kind, R.Kind);
    EXPECT_EQ(D->JobId, 7u);
  }

  Result<Record> S = decodeRecord(encodeRecord(Submit));
  EXPECT_EQ(S->Spec.Source, Submit.Spec.Source);
  EXPECT_EQ(S->Spec.CommandLine, Submit.Spec.CommandLine);
  EXPECT_EQ(S->Spec.StdinData, Submit.Spec.StdinData);
  EXPECT_EQ(S->Spec.ClientId, "tenant");
  EXPECT_TRUE(S->Spec.LiveOutput);

  Result<Record> P = decodeRecord(encodeRecord(Pause));
  EXPECT_EQ(P->Instructions, 123456u);
  EXPECT_EQ(P->SlicesRun, 3u);
  ASSERT_TRUE(P->HasDigest);
  EXPECT_EQ(P->Digest.Pc, 0x4000u);
  EXPECT_TRUE(P->Digest.Carry);
  EXPECT_EQ(P->Digest.Regs[5], 0xfeedfaceu);
  EXPECT_EQ(P->Digest.MemoryHash, 0x1122334455667788ull);
  EXPECT_EQ(P->Digest.MemoryBytes, uint64_t(1 << 22));

  Result<Record> Re = decodeRecord(encodeRecord(Resume));
  EXPECT_EQ(Re->SliceGrant, 50'000u);
  Result<Record> Se = decodeRecord(encodeRecord(Settle));
  EXPECT_EQ(Se->Final, JobState::Cancelled);
}

TEST(Journal, RecordTruncationIsAnErrorAtEveryLength) {
  for (const Record &R : {submitRecord(1), pauseRecord(2)}) {
    std::vector<uint8_t> Full = encodeRecord(R);
    for (size_t Len = 0; Len != Full.size(); ++Len) {
      std::vector<uint8_t> Cut(Full.begin(), Full.begin() + Len);
      EXPECT_FALSE(bool(decodeRecord(Cut)))
          << recordKindName(R.Kind) << " length " << Len;
    }
    std::vector<uint8_t> Garbage = Full;
    Garbage.push_back(0);
    EXPECT_FALSE(bool(decodeRecord(Garbage))) << recordKindName(R.Kind);
  }
}

TEST(Journal, BadKindAndBadStateRejected) {
  std::vector<uint8_t> Full = encodeRecord(submitRecord(1));
  Full[0] = 0; // kind below range
  EXPECT_FALSE(bool(decodeRecord(Full)));
  Full[0] = 99; // above
  EXPECT_FALSE(bool(decodeRecord(Full)));

  Record Settle;
  Settle.Kind = RecordKind::Settle;
  Settle.JobId = 1;
  std::vector<uint8_t> S = encodeRecord(Settle);
  S.back() = 200; // the final JobState ordinal is the last byte
  EXPECT_FALSE(bool(decodeRecord(S)));
}

TEST(Journal, AppendThenReplayReturnsTheSameSequence) {
  TempPath P("replay");
  {
    Result<Journal> J = Journal::open(P.Path);
    ASSERT_TRUE(bool(J)) << J.error().str();
    ASSERT_TRUE(bool(J->append(submitRecord(1))));
    ASSERT_TRUE(bool(J->append(pauseRecord(1))));
    Record Resume;
    Resume.Kind = RecordKind::Resume;
    Resume.JobId = 1;
    Resume.SliceGrant = 9;
    ASSERT_TRUE(bool(J->append(Resume)));
    EXPECT_EQ(J->appendedRecords(), 3u);
  }
  ReplayResult Replay;
  Result<Journal> J = Journal::open(P.Path, &Replay);
  ASSERT_TRUE(bool(J)) << J.error().str();
  EXPECT_FALSE(Replay.Truncated) << Replay.Diagnostic;
  ASSERT_EQ(Replay.Records.size(), 3u);
  EXPECT_EQ(Replay.Records[0].Kind, RecordKind::Submit);
  EXPECT_EQ(Replay.Records[0].Spec.Source, submitRecord(1).Spec.Source);
  EXPECT_EQ(Replay.Records[1].Kind, RecordKind::Pause);
  EXPECT_EQ(Replay.Records[1].Instructions, 123456u);
  EXPECT_EQ(Replay.Records[2].Kind, RecordKind::Resume);
  EXPECT_EQ(Replay.Records[2].SliceGrant, 9u);
}

TEST(Journal, TornTailWriteRecoversToLastGoodRecord) {
  TempPath P("torn");
  {
    Result<Journal> J = Journal::open(P.Path);
    ASSERT_TRUE(bool(J)) << J.error().str();
    ASSERT_TRUE(bool(J->append(submitRecord(1))));
    ASSERT_TRUE(bool(J->append(pauseRecord(1))));
  }
  std::vector<uint8_t> Full = fileBytes(P.Path);
  ASSERT_GT(Full.size(), 8u);
  // Chop the file at every byte boundary inside the final record: replay
  // must always recover exactly the records whose bytes fully survived.
  ReplayResult Clean;
  {
    Result<Journal> J = Journal::open(P.Path, &Clean);
    ASSERT_TRUE(bool(J));
  }
  ASSERT_EQ(Clean.Records.size(), 2u);
  uint64_t FirstEnd = 8; // header
  FirstEnd += 8 + encodeRecord(submitRecord(1)).size();
  for (size_t Len = FirstEnd; Len != Full.size(); ++Len) {
    writeBytes(P.Path, std::vector<uint8_t>(Full.begin(), Full.begin() + Len));
    ReplayResult Replay;
    Result<Journal> J = Journal::open(P.Path, &Replay);
    ASSERT_TRUE(bool(J)) << "length " << Len << ": " << J.error().str();
    if (Len == FirstEnd) {
      // Exactly one whole record: nothing was torn.
      EXPECT_FALSE(Replay.Truncated);
    } else {
      EXPECT_TRUE(Replay.Truncated) << "length " << Len;
      EXPECT_FALSE(Replay.Diagnostic.empty());
    }
    ASSERT_EQ(Replay.Records.size(), 1u) << "length " << Len;
    EXPECT_EQ(Replay.Records[0].Kind, RecordKind::Submit);
    EXPECT_EQ(Replay.GoodBytes, FirstEnd);
    // open() truncated the damage: a second open sees a clean log.
    ReplayResult Again;
    Result<Journal> J2 = Journal::open(P.Path, &Again);
    ASSERT_TRUE(bool(J2));
    EXPECT_FALSE(Again.Truncated) << "length " << Len;
    EXPECT_EQ(Again.Records.size(), 1u);
  }
}

TEST(Journal, CorruptedCrcRecoversWithDiagnostic) {
  TempPath P("crc");
  {
    Result<Journal> J = Journal::open(P.Path);
    ASSERT_TRUE(bool(J)) << J.error().str();
    ASSERT_TRUE(bool(J->append(submitRecord(1))));
    ASSERT_TRUE(bool(J->append(pauseRecord(1))));
  }
  std::vector<uint8_t> Full = fileBytes(P.Path);
  // Flip one payload byte of the *second* record.
  uint64_t SecondPayload = 8 + 8 + encodeRecord(submitRecord(1)).size() + 8;
  ASSERT_LT(SecondPayload + 4, Full.size());
  Full[SecondPayload + 4] ^= 0x40;
  writeBytes(P.Path, Full);

  ReplayResult Replay;
  Result<Journal> J = Journal::open(P.Path, &Replay);
  ASSERT_TRUE(bool(J)) << J.error().str();
  EXPECT_TRUE(Replay.Truncated);
  EXPECT_NE(Replay.Diagnostic.find("crc mismatch"), std::string::npos)
      << Replay.Diagnostic;
  ASSERT_EQ(Replay.Records.size(), 1u);
  EXPECT_EQ(Replay.Records[0].Kind, RecordKind::Submit);
  // Appends continue from the recovered point.
  ASSERT_TRUE(bool(J->append(pauseRecord(1))));
  ReplayResult Again;
  Result<Journal> J2 = Journal::open(P.Path, &Again);
  ASSERT_TRUE(bool(J2));
  EXPECT_FALSE(Again.Truncated);
  ASSERT_EQ(Again.Records.size(), 2u);
  EXPECT_EQ(Again.Records[1].Kind, RecordKind::Pause);
}

TEST(Journal, DamagedHeaderIsAHardError) {
  TempPath P("header");
  {
    Result<Journal> J = Journal::open(P.Path);
    ASSERT_TRUE(bool(J)) << J.error().str();
    ASSERT_TRUE(bool(J->append(submitRecord(1))));
  }
  std::vector<uint8_t> Full = fileBytes(P.Path);
  Full[0] = 'X'; // not our magic: this is the wrong file, not a torn tail
  writeBytes(P.Path, Full);
  EXPECT_FALSE(bool(Journal::open(P.Path)));
}

TEST(Journal, Version1JournalIsRefusedWithADiagnostic) {
  // Version 1 journals carry byte-wise FNV-1a memory hashes; replaying
  // their Pause records would end in a "state digest mismatch", so open
  // refuses them up front and says why.
  TempPath P("v1");
  {
    Result<Journal> J = Journal::open(P.Path);
    ASSERT_TRUE(bool(J)) << J.error().str();
    ASSERT_TRUE(bool(J->append(submitRecord(1))));
    ASSERT_TRUE(bool(J->append(pauseRecord(1))));
  }
  std::vector<uint8_t> Full = fileBytes(P.Path);
  ASSERT_EQ(Full[4], JournalVersion);
  Full[4] = 1;
  writeBytes(P.Path, Full);
  ReplayResult Replay;
  Result<Journal> J = Journal::open(P.Path, &Replay);
  ASSERT_FALSE(bool(J));
  EXPECT_NE(J.error().str().find("has version 1, expected 2"),
            std::string::npos)
      << J.error().str();
  EXPECT_TRUE(Replay.Records.empty());
  // Refusal leaves the file alone: nothing was truncated or rewritten.
  EXPECT_EQ(fileBytes(P.Path), Full);
}

TEST(Journal, CompactReplacesHistoryAtomically) {
  TempPath P("compact");
  Result<Journal> J = Journal::open(P.Path);
  ASSERT_TRUE(bool(J)) << J.error().str();
  for (uint64_t Id = 1; Id <= 5; ++Id) {
    ASSERT_TRUE(bool(J->append(submitRecord(Id))));
    Record Settle;
    Settle.Kind = RecordKind::Settle;
    Settle.JobId = Id;
    ASSERT_TRUE(bool(J->append(Settle)));
  }
  // Compact down to one live chain.
  std::vector<Record> Live = {submitRecord(9), pauseRecord(9)};
  ASSERT_TRUE(bool(J->compact(Live)));
  // The handle stays usable after compaction.
  Record Resume;
  Resume.Kind = RecordKind::Resume;
  Resume.JobId = 9;
  ASSERT_TRUE(bool(J->append(Resume)));

  ReplayResult Replay;
  Result<Journal> J2 = Journal::open(P.Path, &Replay);
  ASSERT_TRUE(bool(J2));
  EXPECT_FALSE(Replay.Truncated) << Replay.Diagnostic;
  ASSERT_EQ(Replay.Records.size(), 3u);
  EXPECT_EQ(Replay.Records[0].Kind, RecordKind::Submit);
  EXPECT_EQ(Replay.Records[0].JobId, 9u);
  EXPECT_EQ(Replay.Records[1].Kind, RecordKind::Pause);
  EXPECT_EQ(Replay.Records[2].Kind, RecordKind::Resume);
}

TEST(Journal, EmptyFileGetsAHeader) {
  TempPath P("empty");
  ReplayResult Replay;
  Result<Journal> J = Journal::open(P.Path, &Replay);
  ASSERT_TRUE(bool(J)) << J.error().str();
  EXPECT_TRUE(Replay.Records.empty());
  EXPECT_FALSE(Replay.Truncated);
  std::vector<uint8_t> Bytes = fileBytes(P.Path);
  ASSERT_EQ(Bytes.size(), 8u);
  EXPECT_EQ(Bytes[0], 'S');
  EXPECT_EQ(Bytes[1], 'V');
  EXPECT_EQ(Bytes[2], 'J');
  EXPECT_EQ(Bytes[3], 'L');
}

} // namespace
