//===- svc/cluster/Journal.h - Write-ahead job journal ----------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The durability layer under svc::Service: an append-only journal of
/// job lifecycle records, written at every admission/pause/resume/settle
/// transition and replayed on startup, so queued and paused jobs survive
/// a daemon crash (`kill -9` included) and resume exactly.
///
/// File format (all integers little-endian):
///
///   +-------------------+   header, once
///   | "SVJL" | u32 ver  |
///   +-------------------+
///   | u32 len | u32 crc | payload (len bytes)   record 0
///   +-------------------+
///   | ...               |                       record 1, ...
///
/// Each payload is one encoded Record (svc/Wire.h primitives; total
/// decoding — truncation at any byte and trailing garbage are decode
/// errors, and enum fields are range-checked).  The CRC32 (IEEE) covers
/// the payload, so a torn tail write, a bit flip, or a short final
/// record is detected; replay stops at the last intact record, reports a
/// diagnostic, and open() truncates the damage away so the log is
/// consistent before anything is appended.
///
/// What a record means is the Service's business (see DESIGN.md §15 for
/// the recovery invariant); the journal itself only promises that the
/// sequence of records handed back by replay is a prefix of the sequence
/// appended, ending at the last record whose bytes survived.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_SVC_CLUSTER_JOURNAL_H
#define SILVER_SVC_CLUSTER_JOURNAL_H

#include "support/Result.h"
#include "svc/Job.h"

#include <cstdint>
#include <string>
#include <vector>

namespace silver {
namespace svc {
namespace cluster {

constexpr uint8_t JournalMagic[4] = {'S', 'V', 'J', 'L'};
/// Version 2: Pause records carry page-hash StateDigests (isa/PageMemory.h);
/// a version-1 journal's digests would never match a replay, so it is
/// refused at open with a diagnostic instead of replayed.
constexpr uint32_t JournalVersion = 2;
/// A journal record rides the same generous bound as a protocol frame
/// (a Submit record carries the whole JobSpec, source and stdin
/// included); anything larger is framing damage, not data.
constexpr uint32_t MaxRecordPayload = 64u << 20;

/// IEEE CRC32 (the zlib/PNG polynomial), for record integrity.
uint32_t crc32(const uint8_t *Data, size_t Len);

enum class RecordKind : uint8_t {
  Submit = 1, ///< job admitted: id + full JobSpec
  Pause = 2,  ///< session parked: id + instruction count + StateDigest
  Resume = 3, ///< paused job re-enqueued: id + fresh slice grant
  Settle = 4, ///< job reached a terminal state: id + which
};
const char *recordKindName(RecordKind K);

/// One journal entry.  Which fields are meaningful depends on Kind; the
/// encoding still writes every Kind's fields unconditionally in
/// declaration order (per-kind, fixed shape — the totality discipline of
/// svc/Protocol.h).
struct Record {
  RecordKind Kind = RecordKind::Submit;
  uint64_t JobId = 0;
  JobSpec Spec;              ///< Submit
  uint64_t Instructions = 0; ///< Pause: retired so far at the park
  uint64_t SlicesRun = 0;    ///< Pause
  bool HasDigest = false;    ///< Pause
  stack::StateDigest Digest; ///< Pause: the architectural state tag
  uint64_t SliceGrant = 0;   ///< Resume
  JobState Final = JobState::Completed; ///< Settle
};

std::vector<uint8_t> encodeRecord(const Record &R);
Result<Record> decodeRecord(const std::vector<uint8_t> &Payload);

/// What replay found in an existing journal file.
struct ReplayResult {
  std::vector<Record> Records; ///< every intact record, in append order
  uint64_t GoodBytes = 0;      ///< file offset just past the last one
  bool Truncated = false;      ///< damage found (and cut off) after it
  std::string Diagnostic;      ///< what the damage was, for the log
};

/// Append handle on a journal file.  Not thread-safe: the Service
/// serializes appends under its job-table mutex, which also keeps the
/// record order consistent with the state transitions it mirrors.
class Journal {
public:
  Journal() = default;
  ~Journal();
  Journal(Journal &&Other) noexcept;
  Journal &operator=(Journal &&Other) noexcept;
  Journal(const Journal &) = delete;
  Journal &operator=(const Journal &) = delete;

  /// Opens \p Path for appending, creating it (with a header) when
  /// absent.  An existing file is replayed first: intact records are
  /// returned through \p Replay (when non-null), and a damaged tail is
  /// truncated away with the diagnostic in Replay->Diagnostic.  A file
  /// whose *header* is damaged is an error — that is not a recoverable
  /// tail, it is the wrong file.
  ///
  /// \p SyncEveryAppend additionally fdatasync()s after each record:
  /// surviving a machine crash, not just a process kill.  Off by
  /// default — a killed process's completed write()s survive in the
  /// page cache, which is the durability level the shard recovery story
  /// needs.
  static Result<Journal> open(const std::string &Path,
                              ReplayResult *Replay = nullptr,
                              bool SyncEveryAppend = false);

  Result<void> append(const Record &R);

  /// Atomically replaces the journal's contents with exactly \p Live
  /// (write to a temp file, rename over): startup compaction, so the
  /// log holds one Submit(+Pause+Resume) chain per surviving job
  /// instead of the dead process's full history.
  Result<void> compact(const std::vector<Record> &Live);

  bool isOpen() const { return Fd != -1; }
  const std::string &path() const { return Path; }
  uint64_t appendedRecords() const { return Appended; }

private:
  std::string Path;
  int Fd = -1;
  bool Sync = false;
  uint64_t Appended = 0;

  void closeFd();
};

} // namespace cluster
} // namespace svc
} // namespace silver

#endif // SILVER_SVC_CLUSTER_JOURNAL_H
