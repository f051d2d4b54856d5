//===- svc/Protocol.h - silverd wire protocol -------------------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The length-prefixed binary protocol between silver-client and silverd
/// (served over a Unix-domain socket; TCP on loopback behind a flag).
///
/// Framing (all integers little-endian):
///
///   +--------+--------+-----------------+
///   | magic  | length | payload         |
///   | "SVC2" | u32    | length bytes    |
///   +--------+--------+-----------------+
///
/// The magic's last byte is the wire version.  Version 2 changed what
/// StateDigest::MemoryHash means (the page hash of isa/PageMemory.h
/// replaced a byte-wise FNV-1a), so a version-1 peer's digests cannot be
/// compared with ours; its frames are refused with a version diagnostic.
///
/// The payload is one encoded Request (client->server) or Response
/// (server->client); every request gets exactly one response, in order,
/// on the same connection.  Payload primitives: u8, u32, u64
/// little-endian; strings are u32 length + raw bytes; string lists are
/// u32 count + strings.  Every field of a message is always encoded, in
/// declaration order — there is no optional-field compression, which
/// keeps the decoder a straight-line read and makes truncation at any
/// point a deterministic decode error rather than a misparse.
///
/// A frame whose magic is wrong or whose length exceeds MaxFramePayload
/// is a protocol error; the server drops the connection (a length-first
/// protocol cannot resynchronise after framing damage).
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_SVC_PROTOCOL_H
#define SILVER_SVC_PROTOCOL_H

#include "support/Result.h"
#include "svc/Job.h"

#include <cstdint>
#include <vector>

namespace silver {
namespace svc {

constexpr uint8_t FrameVersion = '2';
constexpr uint8_t FrameMagic[4] = {'S', 'V', 'C', FrameVersion};
/// Generous: source + stdin + stdout all ride in one frame.
constexpr uint32_t MaxFramePayload = 64u << 20;

enum class RequestKind : uint8_t {
  Submit = 1, ///< enqueue Job; optionally wait for it to settle
  Status = 2, ///< query JobId; optionally wait for it to settle
  Resume = 3, ///< re-enqueue a Paused JobId with a fresh slice
  Cancel = 4, ///< cancel JobId (queued, paused, or mid-run)
  Stats = 5,  ///< service-wide metrics as JSON
  Drain = 6,  ///< stop admissions, finish in-flight work, then respond
  Stream = 7, ///< subscribe to JobId's stdout: data frames, then a
              ///< final response (the one request with a multi-frame
              ///< reply; see Response::Frame)
};
const char *requestKindName(RequestKind K);

struct Request {
  RequestKind Kind = RequestKind::Status;
  uint64_t JobId = 0;  ///< Status / Resume / Cancel / Stream
  uint64_t WaitMs = 0; ///< Submit/Status/Resume/Stream: block this long
  uint64_t SliceInstructions = 0; ///< Resume: the new slice grant
  uint64_t StreamOffset = 0; ///< Stream: resume the byte stream here
  JobSpec Job;               ///< Submit
};

/// Every request is answered by exactly one *final* response
/// (Frame == FinalFrame).  A Stream request is additionally preceded by
/// zero or more data frames (Frame == DataFrame), each carrying the next
/// StreamData bytes of the job's stdout starting at StreamOffset.  The
/// sender never interleaves frames of different requests on one
/// connection, so the reader's loop is: data frames until a final frame.
constexpr uint8_t FinalFrame = 0;
constexpr uint8_t DataFrame = 1;
/// Cap on StreamData bytes per data frame: keeps a slow consumer's
/// memory bounded and lets the blocking socket write provide the
/// backpressure (the producer job is decoupled and never blocks on it).
constexpr uint32_t MaxStreamChunk = 1u << 20;

struct Response {
  bool Ok = false;
  std::string Error;     ///< set when !Ok
  JobInfo Info;          ///< Submit / Status / Resume / Cancel / Stream
  std::string StatsJson; ///< Stats / Drain
  uint8_t Frame = FinalFrame; ///< FinalFrame or DataFrame
  uint64_t StreamOffset = 0;  ///< DataFrame: offset of StreamData[0]
  std::string StreamData;     ///< DataFrame: the next stdout bytes
};

std::vector<uint8_t> encodeRequest(const Request &R);
std::vector<uint8_t> encodeResponse(const Response &R);
Result<Request> decodeRequest(const std::vector<uint8_t> &Payload);
Result<Response> decodeResponse(const std::vector<uint8_t> &Payload);

/// Blocking framed IO over a connected stream socket.  writeFrame
/// prepends magic+length; readFrame validates them and returns false on
/// a clean end-of-stream before any header byte (the peer hung up
/// between messages — not an error).
Result<void> writeFrame(int Fd, const std::vector<uint8_t> &Payload);
Result<bool> readFrame(int Fd, std::vector<uint8_t> &Payload);

} // namespace svc
} // namespace silver

#endif // SILVER_SVC_PROTOCOL_H
