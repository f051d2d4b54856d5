//===- tests/ffi/BasisFfiTest.cpp - basis FFI oracle tests ---------------------===//

#include "ffi/BasisFfi.h"

#include <gtest/gtest.h>

#include <memory>

using namespace silver;
using namespace silver::ffi;

namespace {

std::vector<uint8_t> fdConf(uint64_t Fd) {
  std::vector<uint8_t> C(8, 0);
  for (int I = 7; I >= 0; --I) {
    C[I] = static_cast<uint8_t>(Fd);
    Fd >>= 8;
  }
  return C;
}

std::vector<uint8_t> readRequest(uint16_t Count, size_t Capacity) {
  std::vector<uint8_t> B(4 + Capacity, 0xee);
  u16ToBytes(Count, B.data());
  return B;
}

} // namespace

TEST(Filesystem, StdinReadsAndEof) {
  Filesystem Fs = Filesystem::withStdin("hello");
  std::string Out;
  ASSERT_TRUE(Fs.read(StdinFd, 3, Out));
  EXPECT_EQ(Out, "hel");
  ASSERT_TRUE(Fs.read(StdinFd, 10, Out));
  EXPECT_EQ(Out, "lo");
  ASSERT_TRUE(Fs.read(StdinFd, 10, Out));
  EXPECT_EQ(Out, ""); // EOF
}

TEST(Filesystem, StreamsCollect) {
  Filesystem Fs;
  EXPECT_TRUE(Fs.write(StdoutFd, "a"));
  EXPECT_TRUE(Fs.write(StderrFd, "b"));
  EXPECT_TRUE(Fs.write(StdoutFd, "c"));
  EXPECT_EQ(Fs.StdoutData, "ac");
  EXPECT_EQ(Fs.StderrData, "b");
}

TEST(Filesystem, NamedFiles) {
  Filesystem Fs;
  EXPECT_EQ(Fs.openIn("missing"), 0u);
  uint64_t W = Fs.openOut("f");
  ASSERT_NE(W, 0u);
  EXPECT_TRUE(Fs.write(W, "data"));
  EXPECT_TRUE(Fs.close(W));
  uint64_t R = Fs.openIn("f");
  ASSERT_NE(R, 0u);
  std::string Out;
  EXPECT_TRUE(Fs.read(R, 2, Out));
  EXPECT_EQ(Out, "da");
  EXPECT_TRUE(Fs.read(R, 10, Out));
  EXPECT_EQ(Out, "ta");
  EXPECT_TRUE(Fs.close(R));
  EXPECT_FALSE(Fs.close(R));
  EXPECT_FALSE(Fs.close(StdinFd)); // streams are not closable
}

TEST(Filesystem, ReadFromWriteFdFails) {
  Filesystem Fs;
  uint64_t W = Fs.openOut("f");
  std::string Out;
  EXPECT_FALSE(Fs.read(W, 1, Out));
  EXPECT_FALSE(Fs.write(999, "x"));
}

TEST(BasisFfiOracle, ReadHappyPath) {
  BasisFfi Ffi({"prog"}, Filesystem::withStdin("abcdef"));
  FfiResult R = Ffi.call("read", fdConf(0), readRequest(4, 10));
  ASSERT_EQ(R.Outcome, FfiOutcome::Return);
  EXPECT_EQ(R.Bytes[0], 0);
  EXPECT_EQ(bytesToU16(R.Bytes.data() + 1), 4);
  EXPECT_EQ(R.Bytes[3], 0xee); // untouched, per the paper's ffi_read
  EXPECT_EQ(std::string(R.Bytes.begin() + 4, R.Bytes.begin() + 8), "abcd");
  EXPECT_EQ(R.Bytes[8], 0xee); // tail unchanged
  EXPECT_EQ(Ffi.Fs.StdinOffset, 4u);
}

TEST(BasisFfiOracle, ReadShortAtEof) {
  BasisFfi Ffi({}, Filesystem::withStdin("xy"));
  FfiResult R = Ffi.call("read", fdConf(0), readRequest(10, 10));
  ASSERT_EQ(R.Outcome, FfiOutcome::Return);
  EXPECT_EQ(bytesToU16(R.Bytes.data() + 1), 2);
  R = Ffi.call("read", fdConf(0), readRequest(10, 10));
  EXPECT_EQ(bytesToU16(R.Bytes.data() + 1), 0); // EOF: zero-length read
}

TEST(BasisFfiOracle, ReadCountBeyondBufferSetsStatus1) {
  BasisFfi Ffi({}, Filesystem::withStdin("abc"));
  // Request 20 bytes into a 10-byte payload: the monadic assertion
  // fails and byte 0 becomes 1 (the paper's `otherwise` branch).
  FfiResult R = Ffi.call("read", fdConf(0), readRequest(20, 10));
  ASSERT_EQ(R.Outcome, FfiOutcome::Return);
  EXPECT_EQ(R.Bytes[0], 1);
  EXPECT_EQ(Ffi.Fs.StdinOffset, 0u);
}

TEST(BasisFfiOracle, ReadBadFdSetsStatus1) {
  BasisFfi Ffi({}, Filesystem::withStdin("abc"));
  FfiResult R = Ffi.call("read", fdConf(42), readRequest(1, 10));
  EXPECT_EQ(R.Bytes[0], 1);
}

TEST(BasisFfiOracle, ReadMalformedConfFails) {
  BasisFfi Ffi({}, Filesystem::withStdin("abc"));
  FfiResult R = Ffi.call("read", {0, 0}, readRequest(1, 10));
  EXPECT_EQ(R.Outcome, FfiOutcome::Fail);
}

TEST(BasisFfiOracle, WriteToStdoutAndStderr) {
  BasisFfi Ffi({}, Filesystem());
  std::vector<uint8_t> B = {0, 3, 0, 1, 'X', 'a', 'b', 'c', 'Y'};
  // count=3, offset=1 -> writes "abc".
  FfiResult R = Ffi.call("write", fdConf(1), B);
  ASSERT_EQ(R.Outcome, FfiOutcome::Return);
  EXPECT_EQ(R.Bytes[0], 0);
  EXPECT_EQ(bytesToU16(R.Bytes.data() + 1), 3);
  EXPECT_EQ(Ffi.getStdout(), "abc");
  Ffi.call("write", fdConf(2), B);
  EXPECT_EQ(Ffi.getStderr(), "abc");
}

TEST(BasisFfiOracle, WriteBeyondPayloadSetsStatus1) {
  BasisFfi Ffi({}, Filesystem());
  std::vector<uint8_t> B = {0, 9, 0, 0, 'a', 'b'};
  FfiResult R = Ffi.call("write", fdConf(1), B);
  EXPECT_EQ(R.Bytes[0], 1);
  EXPECT_EQ(Ffi.getStdout(), "");
}

TEST(BasisFfiOracle, ArgCalls) {
  BasisFfi Ffi({"wc", "-l"}, Filesystem());
  FfiResult R = Ffi.call("get_arg_count", {}, {0, 0});
  EXPECT_EQ(bytesToU16(R.Bytes.data()), 2);

  std::vector<uint8_t> Q = {0, 1}; // index 1
  R = Ffi.call("get_arg_length", {}, Q);
  EXPECT_EQ(bytesToU16(R.Bytes.data()), 2); // "-l"

  std::vector<uint8_t> Buf = {0, 1, 0, 0};
  R = Ffi.call("get_arg", {}, Buf);
  EXPECT_EQ(R.Bytes[0], '-');
  EXPECT_EQ(R.Bytes[1], 'l');
}

TEST(BasisFfiOracle, ArgIndexOutOfRangeFails) {
  BasisFfi Ffi({"p"}, Filesystem());
  std::vector<uint8_t> Q = {0, 7};
  EXPECT_EQ(Ffi.call("get_arg_length", {}, Q).Outcome, FfiOutcome::Fail);
  EXPECT_EQ(Ffi.call("get_arg", {}, Q).Outcome, FfiOutcome::Fail);
}

TEST(BasisFfiOracle, OpenCloseRoundTrip) {
  BasisFfi Ffi({}, Filesystem());
  std::vector<uint8_t> B(3, 0);
  std::string Name = "file.txt";
  std::vector<uint8_t> Conf(Name.begin(), Name.end());
  FfiResult R = Ffi.call("open_out", Conf, B);
  ASSERT_EQ(R.Bytes[0], 0);
  uint16_t Fd = bytesToU16(R.Bytes.data() + 1);
  ASSERT_NE(Fd, 0);
  FfiResult C = Ffi.call("close", fdConf(Fd), {9});
  EXPECT_EQ(C.Bytes[0], 0);
  // open_in on a missing file reports failure with fd 0.
  std::vector<uint8_t> Missing = {'n', 'o'};
  R = Ffi.call("open_in", Missing, B);
  EXPECT_EQ(R.Bytes[0], 1);
  EXPECT_EQ(bytesToU16(R.Bytes.data() + 1), 0);
}

TEST(BasisFfiOracle, ExitTerminates) {
  BasisFfi Ffi({}, Filesystem());
  FfiResult R = Ffi.call("exit", {}, {42});
  EXPECT_EQ(R.Outcome, FfiOutcome::Exit);
  EXPECT_EQ(R.ExitCode, 42);
}

TEST(BasisFfiOracle, UnknownCallFails) {
  BasisFfi Ffi({}, Filesystem());
  EXPECT_EQ(Ffi.call("frobnicate", {}, {0}).Outcome, FfiOutcome::Fail);
}

TEST(BasisFfiOracle, IoEventsRecorded) {
  BasisFfi Ffi({}, Filesystem::withStdin("zz"));
  Ffi.call("read", fdConf(0), readRequest(1, 4));
  std::vector<uint8_t> B = {0, 1, 0, 0, 'q'};
  Ffi.call("write", fdConf(1), B);
  ASSERT_EQ(Ffi.Trace.size(), 2u);
  EXPECT_EQ(Ffi.Trace[0].Index, unsigned(FfiIndex::Read));
  EXPECT_EQ(Ffi.Trace[1].Index, unsigned(FfiIndex::Write));
  // The events hold the requests, not the responses.
  EXPECT_EQ(Ffi.Trace[0].Request, (std::vector<uint8_t>{0, 1}));
  EXPECT_EQ(Ffi.Trace[1].Request, B);
  // Exit appends no event.
  Ffi.call("exit", {}, {1});
  EXPECT_EQ(Ffi.Trace.size(), 2u);
}

TEST(BasisFfiOracle, CallNamesMatchSyscallIndices) {
  const auto &Names = BasisFfi::callNames();
  ASSERT_EQ(Names.size(), 9u);
  EXPECT_EQ(Names[0], "read");
  EXPECT_EQ(Names[1], "write");
  EXPECT_EQ(Names[8], "exit");
}

TEST(BigEndianHelpers, RoundTrip) {
  uint8_t B[2];
  u16ToBytes(0xbeef, B);
  EXPECT_EQ(bytesToU16(B), 0xbeef);
  EXPECT_EQ(bytesToU64({0, 0, 0, 0, 0, 0, 0x12, 0x34}), 0x1234u);
}

namespace {

/// The request ioEvent records for call \p Index on \p Bytes.
std::vector<uint8_t> requestOf(FfiIndex Index,
                               const std::vector<uint8_t> &Bytes) {
  std::optional<IoEvent> E =
      ioEvent(unsigned(Index), {}, Bytes.data(), Bytes.size());
  EXPECT_TRUE(E);
  return E ? E->Request : std::vector<uint8_t>{};
}

} // namespace

TEST(IoEvent, FootprintOfEachCall) {
  using V = std::vector<uint8_t>;
  // read: the 16-bit count; bytes[2..3] and the data area are ignored.
  EXPECT_EQ(requestOf(FfiIndex::Read, {0, 3, 7, 7, 1, 2, 3}), (V{0, 3}));
  // write: the header and the payload it names, not the bytes around it.
  EXPECT_EQ(requestOf(FfiIndex::Write, {0, 2, 0, 1, 'x', 'h', 'i', 'y'}),
            (V{0, 2, 0, 1, 'h', 'i'}));
  // get_arg_length / get_arg: the 16-bit index.
  EXPECT_EQ(requestOf(FfiIndex::GetArgLength, {0, 1, 9}), (V{0, 1}));
  EXPECT_EQ(requestOf(FfiIndex::GetArg, {0, 2, 9, 9, 9}), (V{0, 2}));
  // get_arg_count, open_in, open_out, close read no byte of the array.
  for (FfiIndex I : {FfiIndex::GetArgCount, FfiIndex::OpenIn,
                     FfiIndex::OpenOut, FfiIndex::Close})
    EXPECT_EQ(requestOf(I, {1, 2, 3}), V{}) << unsigned(I);

  // The rest of the event: index, conf and the array's length.
  std::vector<uint8_t> Bytes = {0, 5, 0, 0};
  std::optional<IoEvent> E =
      ioEvent(unsigned(FfiIndex::Read), fdConf(0), Bytes.data(), 9);
  ASSERT_TRUE(E);
  EXPECT_EQ(E->Index, unsigned(FfiIndex::Read));
  EXPECT_EQ(E->Conf, fdConf(0));
  EXPECT_EQ(E->BytesLen, 9u);
}

TEST(IoEvent, StaleBytesOutsideTheFootprintAreNotPartOfIt) {
  // The compiled runtime reuses one IO buffer, so whatever an earlier call
  // left behind its footprint must not change the event.
  auto Event = [](FfiIndex I, std::vector<uint8_t> Bytes) {
    return ioEvent(unsigned(I), {}, Bytes.data(), Bytes.size());
  };
  EXPECT_EQ(Event(FfiIndex::GetArgCount, {0, 0}),
            Event(FfiIndex::GetArgCount, {0xde, 0xad}));
  EXPECT_EQ(Event(FfiIndex::Read, {0, 4, 0, 0, 0, 0, 0, 0}),
            Event(FfiIndex::Read, {0, 4, 'o', 'l', 'd', '!', 'x', 'y'}));
  EXPECT_EQ(Event(FfiIndex::GetArg, {0, 1, 0, 0, 0}),
            Event(FfiIndex::GetArg, {0, 1, 'a', 'r', 'g'}));
  // Inside the footprint, a byte does change it.
  EXPECT_NE(Event(FfiIndex::Read, {0, 4, 0, 0, 0, 0, 0, 0}),
            Event(FfiIndex::Read, {0, 3, 0, 0, 0, 0, 0, 0}));
}

TEST(IoEvent, ShortArraysAreClampedNeverReadPast) {
  // Each array is a prefix of Buf in a heap block of exactly its length,
  // so a read past its end is one the sanitizer build reports.
  using V = std::vector<uint8_t>;
  const V Buf = {0x12, 0x34, 0xee, 0xee, 0xee, 0xee};
  auto Request = [&](FfiIndex I, size_t Len) {
    std::unique_ptr<uint8_t[]> Array(new uint8_t[Len]);
    std::copy_n(Buf.begin(), Len, Array.get());
    std::optional<IoEvent> E = ioEvent(unsigned(I), {}, Array.get(), Len);
    EXPECT_TRUE(E);
    EXPECT_EQ(E->BytesLen, Len);
    return E->Request;
  };
  EXPECT_EQ(Request(FfiIndex::Read, 0), V{});
  EXPECT_EQ(Request(FfiIndex::Read, 1), V{0x12});
  EXPECT_EQ(Request(FfiIndex::GetArg, 1), V{0x12});
  EXPECT_EQ(Request(FfiIndex::Write, 3), (V{0x12, 0x34, 0xee}));
  // A write whose count runs past the array reads its header only (the
  // oracle fails it), not the payload it names.
  EXPECT_EQ(Request(FfiIndex::Write, 4), (V{0x12, 0x34, 0xee, 0xee}));
  EXPECT_EQ(requestOf(FfiIndex::Write, {0, 3, 0, 0, 'a', 'b'}),
            (V{0, 3, 0, 0}));
}

TEST(IoEvent, ExitRecordsNothing) {
  uint8_t Code = 7;
  EXPECT_FALSE(ioEvent(unsigned(FfiIndex::Exit), {}, &Code, 1));
  BasisFfi Ffi({}, Filesystem());
  EXPECT_EQ(Ffi.call("exit", {}, {7}).Outcome, FfiOutcome::Exit);
  EXPECT_TRUE(Ffi.Trace.empty());
}
