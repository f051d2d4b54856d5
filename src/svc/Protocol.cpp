//===- svc/Protocol.cpp - silverd wire protocol -------------------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "svc/Protocol.h"

#include "svc/Wire.h"

#include <cerrno>
#include <cstring>
#include <unistd.h>

using namespace silver;
using namespace silver::svc;
using wire::Reader;
using wire::Writer;

const char *silver::svc::requestKindName(RequestKind K) {
  switch (K) {
  case RequestKind::Submit:
    return "submit";
  case RequestKind::Status:
    return "status";
  case RequestKind::Resume:
    return "resume";
  case RequestKind::Cancel:
    return "cancel";
  case RequestKind::Stats:
    return "stats";
  case RequestKind::Drain:
    return "drain";
  case RequestKind::Stream:
    return "stream";
  }
  return "?";
}

std::vector<uint8_t> silver::svc::encodeRequest(const Request &R) {
  Writer W;
  W.u8(static_cast<uint8_t>(R.Kind));
  W.u64(R.JobId);
  W.u64(R.WaitMs);
  W.u64(R.SliceInstructions);
  W.u64(R.StreamOffset);
  wire::putSpec(W, R.Job);
  return std::move(W.Buf);
}

Result<Request> silver::svc::decodeRequest(const std::vector<uint8_t> &P) {
  Reader R{P.data(), P.size()};
  Request Req;
  uint8_t Kind = R.u8();
  if (Kind < static_cast<uint8_t>(RequestKind::Submit) ||
      Kind > static_cast<uint8_t>(RequestKind::Stream))
    return Error("protocol: unknown request kind " + std::to_string(Kind));
  Req.Kind = static_cast<RequestKind>(Kind);
  Req.JobId = R.u64();
  Req.WaitMs = R.u64();
  Req.SliceInstructions = R.u64();
  Req.StreamOffset = R.u64();
  Req.Job = wire::getSpec(R);
  if (!R.done())
    return Error("protocol: malformed request payload");
  if (static_cast<uint8_t>(Req.Job.Level) >
      static_cast<uint8_t>(stack::Level::Verilog))
    return Error("protocol: unknown execution level");
  if (static_cast<uint8_t>(Req.Job.Backend) >
      static_cast<uint8_t>(stack::BackendKind::Jit))
    return Error("protocol: unknown execution backend");
  if (static_cast<uint8_t>(Req.Job.Hdl) >
      static_cast<uint8_t>(stack::HdlBackendKind::Compiled))
    return Error("protocol: unknown hdl backend");
  return Req;
}

std::vector<uint8_t> silver::svc::encodeResponse(const Response &R) {
  Writer W;
  W.u8(R.Ok);
  W.str(R.Error);
  wire::putInfo(W, R.Info);
  W.str(R.StatsJson);
  W.u8(R.Frame);
  W.u64(R.StreamOffset);
  W.str(R.StreamData);
  return std::move(W.Buf);
}

Result<Response> silver::svc::decodeResponse(const std::vector<uint8_t> &P) {
  Reader R{P.data(), P.size()};
  Response Resp;
  Resp.Ok = R.u8() != 0;
  Resp.Error = R.str();
  Resp.Info = wire::getInfo(R);
  Resp.StatsJson = R.str();
  Resp.Frame = R.u8();
  Resp.StreamOffset = R.u64();
  Resp.StreamData = R.str();
  if (!R.done())
    return Error("protocol: malformed response payload");
  if (Resp.Frame > DataFrame)
    return Error("protocol: unknown response frame kind " +
                 std::to_string(Resp.Frame));
  return Resp;
}

//===----------------------------------------------------------------------===//
// Framed socket IO
//===----------------------------------------------------------------------===//

namespace {

Result<void> writeAll(int Fd, const uint8_t *Data, size_t Len) {
  while (Len) {
    ssize_t N = ::write(Fd, Data, Len);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return Error(std::string("socket write: ") + std::strerror(errno));
    }
    Data += N;
    Len -= static_cast<size_t>(N);
  }
  return {};
}

/// Returns 1 on a full read, 0 on clean EOF at offset 0, an error
/// otherwise (including EOF mid-buffer: a truncated frame).
Result<int> readAll(int Fd, uint8_t *Data, size_t Len) {
  size_t Got = 0;
  while (Got != Len) {
    ssize_t N = ::read(Fd, Data + Got, Len - Got);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return Error(std::string("socket read: ") + std::strerror(errno));
    }
    if (N == 0) {
      if (Got == 0)
        return 0;
      return Error("socket read: connection closed mid-frame");
    }
    Got += static_cast<size_t>(N);
  }
  return 1;
}

} // namespace

Result<void> silver::svc::writeFrame(int Fd,
                                     const std::vector<uint8_t> &Payload) {
  if (Payload.size() > MaxFramePayload)
    return Error("protocol: frame payload too large");
  uint8_t Header[8];
  std::memcpy(Header, FrameMagic, 4);
  uint32_t Len = static_cast<uint32_t>(Payload.size());
  for (int I = 0; I != 4; ++I)
    Header[4 + I] = static_cast<uint8_t>(Len >> (8 * I));
  if (Result<void> W = writeAll(Fd, Header, sizeof(Header)); !W)
    return W;
  return writeAll(Fd, Payload.data(), Payload.size());
}

Result<bool> silver::svc::readFrame(int Fd, std::vector<uint8_t> &Payload) {
  uint8_t Header[8];
  Result<int> H = readAll(Fd, Header, sizeof(Header));
  if (!H)
    return H.error();
  if (*H == 0)
    return false; // clean end-of-stream between frames
  if (std::memcmp(Header, FrameMagic, 3) == 0 && Header[3] != FrameVersion)
    return Error(std::string("protocol: frame version '") +
                 static_cast<char>(Header[3]) + "' is not supported (this "
                 "build speaks '" + static_cast<char>(FrameVersion) +
                 "'; StateDigest memory hashes changed meaning)");
  if (std::memcmp(Header, FrameMagic, 4) != 0)
    return Error("protocol: bad frame magic");
  uint32_t Len = 0;
  for (int I = 0; I != 4; ++I)
    Len |= static_cast<uint32_t>(Header[4 + I]) << (8 * I);
  if (Len > MaxFramePayload)
    return Error("protocol: frame payload too large");
  Payload.resize(Len);
  if (Len) {
    Result<int> B = readAll(Fd, Payload.data(), Len);
    if (!B)
      return B.error();
    if (*B == 0)
      return Error("socket read: connection closed mid-frame");
  }
  return true;
}
