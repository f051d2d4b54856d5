//===- svc/cluster/Journal.cpp - Write-ahead job journal ----------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "svc/cluster/Journal.h"

#include "svc/Protocol.h"
#include "svc/Wire.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace silver;
using namespace silver::svc;
using namespace silver::svc::cluster;
using wire::Reader;
using wire::Writer;

//===----------------------------------------------------------------------===//
// CRC32 (IEEE 802.3 / zlib polynomial, reflected)
//===----------------------------------------------------------------------===//

namespace {

struct Crc32Table {
  uint32_t T[256];
  Crc32Table() {
    for (uint32_t I = 0; I != 256; ++I) {
      uint32_t C = I;
      for (int K = 0; K != 8; ++K)
        C = (C & 1) ? 0xedb88320u ^ (C >> 1) : C >> 1;
      T[I] = C;
    }
  }
};

const Crc32Table &crcTable() {
  static const Crc32Table Table;
  return Table;
}

} // namespace

uint32_t silver::svc::cluster::crc32(const uint8_t *Data, size_t Len) {
  const Crc32Table &Tab = crcTable();
  uint32_t C = 0xffffffffu;
  for (size_t I = 0; I != Len; ++I)
    C = Tab.T[(C ^ Data[I]) & 0xffu] ^ (C >> 8);
  return C ^ 0xffffffffu;
}

const char *silver::svc::cluster::recordKindName(RecordKind K) {
  switch (K) {
  case RecordKind::Submit:
    return "submit";
  case RecordKind::Pause:
    return "pause";
  case RecordKind::Resume:
    return "resume";
  case RecordKind::Settle:
    return "settle";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Record codec
//===----------------------------------------------------------------------===//

std::vector<uint8_t> silver::svc::cluster::encodeRecord(const Record &R) {
  Writer W;
  W.u8(static_cast<uint8_t>(R.Kind));
  W.u64(R.JobId);
  switch (R.Kind) {
  case RecordKind::Submit:
    wire::putSpec(W, R.Spec);
    break;
  case RecordKind::Pause:
    W.u64(R.Instructions);
    W.u64(R.SlicesRun);
    W.u8(R.HasDigest);
    wire::putDigest(W, R.Digest);
    break;
  case RecordKind::Resume:
    W.u64(R.SliceGrant);
    break;
  case RecordKind::Settle:
    W.u8(static_cast<uint8_t>(R.Final));
    break;
  }
  return std::move(W.Buf);
}

Result<Record> silver::svc::cluster::decodeRecord(
    const std::vector<uint8_t> &Payload) {
  Reader R{Payload.data(), Payload.size()};
  Record Rec;
  uint8_t Kind = R.u8();
  if (Kind < static_cast<uint8_t>(RecordKind::Submit) ||
      Kind > static_cast<uint8_t>(RecordKind::Settle))
    return Error("journal: unknown record kind " + std::to_string(Kind));
  Rec.Kind = static_cast<RecordKind>(Kind);
  Rec.JobId = R.u64();
  switch (Rec.Kind) {
  case RecordKind::Submit:
    Rec.Spec = wire::getSpec(R);
    break;
  case RecordKind::Pause:
    Rec.Instructions = R.u64();
    Rec.SlicesRun = R.u64();
    Rec.HasDigest = R.u8() != 0;
    Rec.Digest = wire::getDigest(R);
    break;
  case RecordKind::Resume:
    Rec.SliceGrant = R.u64();
    break;
  case RecordKind::Settle:
    Rec.Final = static_cast<JobState>(R.u8());
    break;
  }
  if (!R.done())
    return Error("journal: malformed record payload");
  if (Rec.Kind == RecordKind::Submit && !wire::specEnumsValid(Rec.Spec))
    return Error("journal: submit record with out-of-range enum field");
  if (Rec.Kind == RecordKind::Settle &&
      static_cast<uint8_t>(Rec.Final) > static_cast<uint8_t>(JobState::Rejected))
    return Error("journal: settle record with unknown job state");
  return Rec;
}

//===----------------------------------------------------------------------===//
// File handling
//===----------------------------------------------------------------------===//

Journal::~Journal() { closeFd(); }

Journal::Journal(Journal &&Other) noexcept
    : Path(std::move(Other.Path)), Fd(Other.Fd), Sync(Other.Sync),
      Appended(Other.Appended) {
  Other.Fd = -1;
}

Journal &Journal::operator=(Journal &&Other) noexcept {
  if (this != &Other) {
    closeFd();
    Path = std::move(Other.Path);
    Fd = Other.Fd;
    Sync = Other.Sync;
    Appended = Other.Appended;
    Other.Fd = -1;
  }
  return *this;
}

void Journal::closeFd() {
  if (Fd != -1) {
    ::close(Fd);
    Fd = -1;
  }
}

namespace {

std::vector<uint8_t> headerBytes() {
  std::vector<uint8_t> H(JournalMagic, JournalMagic + 4);
  for (int I = 0; I != 4; ++I)
    H.push_back(static_cast<uint8_t>(JournalVersion >> (8 * I)));
  return H;
}

/// Scans records from the current offset (just past the header); fills
/// \p Out and stops — never errors — at the first damaged record.
Result<void> scanRecords(int Fd, ReplayResult &Out) {
  Out.GoodBytes = 8; // the header
  while (true) {
    uint8_t Head[8];
    Result<int> H = readExact(Fd, Head, sizeof(Head), "journal read");
    if (!H)
      return H.error();
    if (*H == 0)
      return {}; // clean end: every record intact
    if (*H < 0) {
      Out.Truncated = true;
      Out.Diagnostic = "short record header at offset " +
                       std::to_string(Out.GoodBytes) +
                       " (torn final write)";
      return {};
    }
    uint32_t Len = 0, Crc = 0;
    for (int I = 0; I != 4; ++I) {
      Len |= static_cast<uint32_t>(Head[I]) << (8 * I);
      Crc |= static_cast<uint32_t>(Head[4 + I]) << (8 * I);
    }
    if (Len > MaxRecordPayload) {
      Out.Truncated = true;
      Out.Diagnostic = "implausible record length " + std::to_string(Len) +
                       " at offset " + std::to_string(Out.GoodBytes);
      return {};
    }
    std::vector<uint8_t> Payload(Len);
    Result<int> B = readExact(Fd, Payload.data(), Len, "journal read");
    if (!B)
      return B.error();
    if (*B != 1) {
      Out.Truncated = true;
      Out.Diagnostic = "short record body at offset " +
                       std::to_string(Out.GoodBytes) +
                       " (torn final write)";
      return {};
    }
    if (crc32(Payload.data(), Payload.size()) != Crc) {
      Out.Truncated = true;
      Out.Diagnostic = "crc mismatch at offset " +
                       std::to_string(Out.GoodBytes) +
                       "; recovering to the last good record";
      return {};
    }
    Result<Record> Rec = decodeRecord(Payload);
    if (!Rec) {
      Out.Truncated = true;
      Out.Diagnostic = Rec.error().str() + " at offset " +
                       std::to_string(Out.GoodBytes);
      return {};
    }
    Out.Records.push_back(Rec.take());
    Out.GoodBytes += sizeof(Head) + Len;
  }
}

} // namespace

Result<Journal> Journal::open(const std::string &Path, ReplayResult *Replay,
                              bool SyncEveryAppend) {
  ReplayResult Local;
  ReplayResult &RR = Replay ? *Replay : Local;
  RR = ReplayResult{};

  int Fd = ::open(Path.c_str(), O_RDWR | O_CREAT, 0644);
  if (Fd < 0)
    return errnoError("journal open " + Path);

  struct stat St {};
  if (::fstat(Fd, &St) != 0) {
    Error E = errnoError("journal stat " + Path);
    ::close(Fd);
    return E;
  }

  if (St.st_size == 0) {
    // Fresh journal: write the header.
    std::vector<uint8_t> H = headerBytes();
    if (Result<void> W = writeAll(Fd, H.data(), H.size(), "journal write");
        !W) {
      ::close(Fd);
      return W.error();
    }
    RR.GoodBytes = H.size();
  } else {
    uint8_t Head[8];
    Result<int> H = readExact(Fd, Head, sizeof(Head), "journal read");
    if (!H || *H != 1 || std::memcmp(Head, JournalMagic, 4) != 0) {
      ::close(Fd);
      return Error("journal: " + Path +
                   " is not a silver job journal (bad header)");
    }
    uint32_t Ver = 0;
    for (int I = 0; I != 4; ++I)
      Ver |= static_cast<uint32_t>(Head[4 + I]) << (8 * I);
    if (Ver != JournalVersion) {
      ::close(Fd);
      return Error("journal: " + Path + " has version " +
                   std::to_string(Ver) + ", expected " +
                   std::to_string(JournalVersion));
    }
    if (Result<void> S = scanRecords(Fd, RR); !S) {
      ::close(Fd);
      return S.error();
    }
    if (RR.Truncated) {
      // Cut the damage off so appends extend a consistent log.
      if (::ftruncate(Fd, static_cast<off_t>(RR.GoodBytes)) != 0) {
        Error E = errnoError("journal truncate " + Path);
        ::close(Fd);
        return E;
      }
    }
    if (::lseek(Fd, 0, SEEK_END) < 0) {
      Error E = errnoError("journal seek " + Path);
      ::close(Fd);
      return E;
    }
  }

  Journal J;
  J.Path = Path;
  J.Fd = Fd;
  J.Sync = SyncEveryAppend;
  return J;
}

Result<void> Journal::append(const Record &R) {
  if (Fd == -1)
    return Error("journal: not open");
  std::vector<uint8_t> Payload = encodeRecord(R);
  uint8_t Head[8];
  uint32_t Len = static_cast<uint32_t>(Payload.size());
  uint32_t Crc = crc32(Payload.data(), Payload.size());
  for (int I = 0; I != 4; ++I) {
    Head[I] = static_cast<uint8_t>(Len >> (8 * I));
    Head[4 + I] = static_cast<uint8_t>(Crc >> (8 * I));
  }
  // One writev-shaped write: header and payload in a single buffer so a
  // crash tears at most the final record, which replay detects.
  std::vector<uint8_t> Buf;
  Buf.reserve(sizeof(Head) + Payload.size());
  Buf.insert(Buf.end(), Head, Head + sizeof(Head));
  Buf.insert(Buf.end(), Payload.begin(), Payload.end());
  if (Result<void> W =
          writeAll(Fd, Buf.data(), Buf.size(), "journal write");
      !W)
    return W;
  if (Sync && ::fdatasync(Fd) != 0)
    return errnoError("journal fdatasync " + Path);
  ++Appended;
  return {};
}

Result<void> Journal::compact(const std::vector<Record> &Live) {
  if (Fd == -1)
    return Error("journal: not open");
  std::string Tmp = Path + ".compact";
  int TmpFd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (TmpFd < 0)
    return errnoError("journal open " + Tmp);
  std::vector<uint8_t> Buf = headerBytes();
  for (const Record &R : Live) {
    std::vector<uint8_t> Payload = encodeRecord(R);
    uint32_t Len = static_cast<uint32_t>(Payload.size());
    uint32_t Crc = crc32(Payload.data(), Payload.size());
    for (int I = 0; I != 4; ++I)
      Buf.push_back(static_cast<uint8_t>(Len >> (8 * I)));
    for (int I = 0; I != 4; ++I)
      Buf.push_back(static_cast<uint8_t>(Crc >> (8 * I)));
    Buf.insert(Buf.end(), Payload.begin(), Payload.end());
  }
  if (Result<void> W =
          writeAll(TmpFd, Buf.data(), Buf.size(), "journal write");
      !W) {
    ::close(TmpFd);
    ::unlink(Tmp.c_str());
    return W;
  }
  if (::fdatasync(TmpFd) != 0 || ::close(TmpFd) != 0) {
    Error E = errnoError("journal finalize " + Tmp);
    ::unlink(Tmp.c_str());
    return E;
  }
  if (::rename(Tmp.c_str(), Path.c_str()) != 0) {
    Error E = errnoError("journal rename " + Tmp);
    ::unlink(Tmp.c_str());
    return E;
  }
  // Reopen the handle on the new file and position at its end.
  int NewFd = ::open(Path.c_str(), O_RDWR, 0644);
  if (NewFd < 0)
    return errnoError("journal reopen " + Path);
  if (::lseek(NewFd, 0, SEEK_END) < 0) {
    Error E = errnoError("journal seek " + Path);
    ::close(NewFd);
    return E;
  }
  closeFd();
  Fd = NewFd;
  return {};
}
