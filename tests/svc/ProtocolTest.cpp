//===- tests/svc/ProtocolTest.cpp - wire protocol round trips -----------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "svc/Protocol.h"

#include "gtest/gtest.h"

#include <sys/socket.h>
#include <unistd.h>

using namespace silver;
using namespace silver::svc;

namespace {

JobSpec sampleSpec() {
  JobSpec S;
  S.Source = "val _ = print \"hi\\n\"";
  S.Level = stack::Level::Rtl;
  S.CommandLine = {"prog", "a", "b"};
  S.StdinData = std::string("line1\nline2\n\0binary", 19);
  S.MaxSteps = 123456789;
  S.MaxCycles = 42;
  S.SliceInstructions = 1000;
  S.WallMsBudget = 250;
  S.Priority = 3;
  S.Backend = stack::BackendKind::Jit;
  S.ClientId = "tenant-a";
  S.LiveOutput = true;
  return S;
}

TEST(Protocol, SubmitRoundTrip) {
  Request R;
  R.Kind = RequestKind::Submit;
  R.WaitMs = 60'000;
  R.Job = sampleSpec();

  Result<Request> D = decodeRequest(encodeRequest(R));
  ASSERT_TRUE(bool(D)) << D.error().str();
  EXPECT_EQ(D->Kind, RequestKind::Submit);
  EXPECT_EQ(D->WaitMs, 60'000u);
  EXPECT_EQ(D->Job.Source, R.Job.Source);
  EXPECT_EQ(D->Job.Level, stack::Level::Rtl);
  EXPECT_EQ(D->Job.CommandLine, R.Job.CommandLine);
  EXPECT_EQ(D->Job.StdinData, R.Job.StdinData);
  EXPECT_EQ(D->Job.MaxSteps, R.Job.MaxSteps);
  EXPECT_EQ(D->Job.MaxCycles, R.Job.MaxCycles);
  EXPECT_EQ(D->Job.SliceInstructions, R.Job.SliceInstructions);
  EXPECT_EQ(D->Job.WallMsBudget, R.Job.WallMsBudget);
  EXPECT_EQ(D->Job.Priority, R.Job.Priority);
  EXPECT_EQ(D->Job.Backend, stack::BackendKind::Jit);
  EXPECT_EQ(D->Job.ClientId, "tenant-a");
  EXPECT_TRUE(D->Job.LiveOutput);
}

TEST(Protocol, EveryRequestKindRoundTrips) {
  for (RequestKind K :
       {RequestKind::Submit, RequestKind::Status, RequestKind::Resume,
        RequestKind::Cancel, RequestKind::Stats, RequestKind::Drain}) {
    Request R;
    R.Kind = K;
    R.JobId = 7;
    R.SliceInstructions = 11;
    Result<Request> D = decodeRequest(encodeRequest(R));
    ASSERT_TRUE(bool(D)) << requestKindName(K) << ": " << D.error().str();
    EXPECT_EQ(D->Kind, K);
    EXPECT_EQ(D->JobId, 7u);
    EXPECT_EQ(D->SliceInstructions, 11u);
  }
}

TEST(Protocol, ResponseRoundTrip) {
  Response R;
  R.Ok = true;
  R.Info.Id = 99;
  R.Info.State = JobState::Paused;
  R.Info.Level = stack::Level::Verilog;
  R.Info.Priority = 2;
  R.Info.SlicesRun = 5;
  R.Info.Outcome.Behaviour.StdoutData = "partial out";
  R.Info.Outcome.Behaviour.Instructions = 5000;
  R.Info.Outcome.Behaviour.Cycles = 80000;
  R.Info.Outcome.HasDigest = true;
  R.Info.Outcome.Digest.Pc = 0x1234;
  R.Info.Outcome.Digest.Carry = true;
  R.Info.Outcome.Digest.Regs[0] = 1;
  R.Info.Outcome.Digest.Regs[63] = 0xdeadbeef;
  R.Info.Outcome.Digest.MemoryHash = 0x0123456789abcdefull;
  R.Info.Outcome.Digest.MemoryBytes = 1 << 20;
  R.StatsJson = "{\"x\":1}";

  Result<Response> D = decodeResponse(encodeResponse(R));
  ASSERT_TRUE(bool(D)) << D.error().str();
  EXPECT_TRUE(D->Ok);
  EXPECT_EQ(D->Info.Id, 99u);
  EXPECT_EQ(D->Info.State, JobState::Paused);
  EXPECT_EQ(D->Info.Level, stack::Level::Verilog);
  EXPECT_EQ(D->Info.SlicesRun, 5u);
  EXPECT_EQ(D->Info.Outcome.Behaviour.StdoutData, "partial out");
  EXPECT_TRUE(D->Info.Outcome.HasDigest);
  EXPECT_EQ(D->Info.Outcome.Digest.Pc, 0x1234u);
  EXPECT_TRUE(D->Info.Outcome.Digest.Carry);
  EXPECT_FALSE(D->Info.Outcome.Digest.Overflow);
  EXPECT_EQ(D->Info.Outcome.Digest.Regs[63], 0xdeadbeefu);
  EXPECT_EQ(D->Info.Outcome.Digest.MemoryHash, 0x0123456789abcdefull);
  EXPECT_EQ(D->Info.Outcome.Digest.MemoryBytes, 1u << 20);
  EXPECT_EQ(D->StatsJson, "{\"x\":1}");
}

TEST(Protocol, ErrorResponseRoundTrip) {
  Response R;
  R.Ok = false;
  R.Error = "queue full";
  Result<Response> D = decodeResponse(encodeResponse(R));
  ASSERT_TRUE(bool(D)) << D.error().str();
  EXPECT_FALSE(D->Ok);
  EXPECT_EQ(D->Error, "queue full");
}

TEST(Protocol, TruncationIsAnErrorAtEveryLength) {
  Request R;
  R.Kind = RequestKind::Submit;
  R.Job = sampleSpec();
  std::vector<uint8_t> Full = encodeRequest(R);
  // Chopping the payload anywhere must decode to an error, never to a
  // misparsed request.
  for (size_t Len = 0; Len != Full.size(); ++Len) {
    std::vector<uint8_t> Cut(Full.begin(), Full.begin() + Len);
    EXPECT_FALSE(bool(decodeRequest(Cut))) << "length " << Len;
  }
}

TEST(Protocol, TrailingGarbageIsAnError) {
  Request R;
  R.Kind = RequestKind::Stats;
  std::vector<uint8_t> Full = encodeRequest(R);
  Full.push_back(0);
  EXPECT_FALSE(bool(decodeRequest(Full)));
}

TEST(Protocol, BadKindAndBadLevelRejected) {
  Request R;
  R.Kind = RequestKind::Stats;
  std::vector<uint8_t> Full = encodeRequest(R);
  Full[0] = 0; // kind byte below the valid range
  EXPECT_FALSE(bool(decodeRequest(Full)));
  Full[0] = 200; // above
  EXPECT_FALSE(bool(decodeRequest(Full)));
}

TEST(Protocol, BadBackendRejected) {
  Request R;
  R.Kind = RequestKind::Submit;
  R.Job = sampleSpec();
  R.Job.ClientId.clear();
  R.Job.LiveOutput = false;
  std::vector<uint8_t> Full = encodeRequest(R);
  // With an empty ClientId the spec's tail is: backend ordinal, hdl
  // ordinal, u32 client-id length (0), live-output flag.  Corrupt
  // either ordinal past its enum range and the decoder must refuse.
  size_t HdlAt = Full.size() - 6;
  size_t BackendAt = Full.size() - 7;
  ASSERT_EQ(Full[HdlAt], static_cast<uint8_t>(stack::HdlBackendKind::Interp));
  ASSERT_EQ(Full[BackendAt], static_cast<uint8_t>(stack::BackendKind::Jit));
  std::vector<uint8_t> BadHdl = Full;
  BadHdl[HdlAt] = 200;
  EXPECT_FALSE(bool(decodeRequest(BadHdl)));
  std::vector<uint8_t> BadBackend = Full;
  BadBackend[BackendAt] = 200;
  EXPECT_FALSE(bool(decodeRequest(BadBackend)));
}

TEST(Protocol, StreamRequestRoundTrips) {
  Request R;
  R.Kind = RequestKind::Stream;
  R.JobId = 42;
  R.WaitMs = 5000;
  R.StreamOffset = 0xabcdef0123ull;
  Result<Request> D = decodeRequest(encodeRequest(R));
  ASSERT_TRUE(bool(D)) << D.error().str();
  EXPECT_EQ(D->Kind, RequestKind::Stream);
  EXPECT_EQ(D->JobId, 42u);
  EXPECT_EQ(D->WaitMs, 5000u);
  EXPECT_EQ(D->StreamOffset, 0xabcdef0123ull);
}

TEST(Protocol, DataFrameResponseRoundTrips) {
  Response R;
  R.Ok = true;
  R.Frame = DataFrame;
  R.StreamOffset = 1 << 16;
  R.StreamData = std::string("chunk\0with\0nuls", 15);
  Result<Response> D = decodeResponse(encodeResponse(R));
  ASSERT_TRUE(bool(D)) << D.error().str();
  EXPECT_TRUE(D->Ok);
  EXPECT_EQ(D->Frame, DataFrame);
  EXPECT_EQ(D->StreamOffset, uint64_t(1 << 16));
  EXPECT_EQ(D->StreamData, std::string("chunk\0with\0nuls", 15));
}

TEST(Protocol, DataFrameTruncationIsAnErrorAtEveryLength) {
  Response R;
  R.Ok = true;
  R.Frame = DataFrame;
  R.StreamOffset = 77;
  R.StreamData = "streamed bytes";
  std::vector<uint8_t> Full = encodeResponse(R);
  for (size_t Len = 0; Len != Full.size(); ++Len) {
    std::vector<uint8_t> Cut(Full.begin(), Full.begin() + Len);
    EXPECT_FALSE(bool(decodeResponse(Cut))) << "length " << Len;
  }
}

/// A connected socket pair, closed on destruction.
struct SocketPair {
  int Fd[2] = {-1, -1};
  SocketPair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Fd), 0); }
  ~SocketPair() {
    for (int F : Fd)
      if (F >= 0)
        ::close(F);
  }
};

Response digestResponse() {
  Response R;
  R.Ok = true;
  R.Info.Id = 7;
  R.Info.State = JobState::Paused;
  R.Info.Outcome.HasDigest = true;
  R.Info.Outcome.Digest.MemoryHash = 0x0123456789abcdefull;
  R.Info.Outcome.Digest.MemoryBytes = 1 << 22;
  return R;
}

TEST(Protocol, CurrentVersionFrameRoundTrips) {
  SocketPair S;
  std::vector<uint8_t> Payload = encodeResponse(digestResponse());
  ASSERT_TRUE(bool(writeFrame(S.Fd[0], Payload)));
  std::vector<uint8_t> Got;
  Result<bool> R = readFrame(S.Fd[1], Got);
  ASSERT_TRUE(bool(R)) << R.error().str();
  EXPECT_TRUE(*R);
  EXPECT_EQ(Got, Payload);
}

TEST(Protocol, OldVersionFrameIsRefusedWithADiagnostic) {
  // A version-1 peer's digests hash memory byte-wise: a well-formed
  // frame of theirs must be refused for its version, not decoded into a
  // digest that can never match ours.
  SocketPair S;
  std::vector<uint8_t> Payload = encodeResponse(digestResponse());
  std::vector<uint8_t> Frame = {'S', 'V', 'C', '1'};
  for (int I = 0; I != 4; ++I)
    Frame.push_back(static_cast<uint8_t>(Payload.size() >> (8 * I)));
  Frame.insert(Frame.end(), Payload.begin(), Payload.end());
  ASSERT_EQ(::write(S.Fd[0], Frame.data(), Frame.size()),
            static_cast<ssize_t>(Frame.size()));
  std::vector<uint8_t> Got;
  Result<bool> R = readFrame(S.Fd[1], Got);
  ASSERT_FALSE(bool(R));
  EXPECT_NE(R.error().str().find("frame version '1' is not supported"),
            std::string::npos)
      << R.error().str();
}

TEST(Protocol, ForeignMagicIsStillABadMagic) {
  SocketPair S;
  const uint8_t Frame[8] = {'H', 'T', 'T', 'P', 0, 0, 0, 0};
  ASSERT_EQ(::write(S.Fd[0], Frame, sizeof(Frame)),
            static_cast<ssize_t>(sizeof(Frame)));
  std::vector<uint8_t> Got;
  Result<bool> R = readFrame(S.Fd[1], Got);
  ASSERT_FALSE(bool(R));
  EXPECT_EQ(R.error().str(), "protocol: bad frame magic");
}

} // namespace
