//===- svc/Client.cpp - silverd client library --------------------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "svc/Client.h"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace silver;
using namespace silver::svc;

Client::~Client() { close(); }

Client::Client(Client &&Other) noexcept : Fd(Other.Fd) { Other.Fd = -1; }

Client &Client::operator=(Client &&Other) noexcept {
  if (this != &Other) {
    close();
    Fd = Other.Fd;
    Other.Fd = -1;
  }
  return *this;
}

void Client::close() {
  if (Fd != -1) {
    ::close(Fd);
    Fd = -1;
  }
}

Result<void> Client::connectUnix(const std::string &SocketPath) {
  if (Fd != -1)
    return Error("already connected");
  sockaddr_un Addr{};
  if (SocketPath.size() >= sizeof(Addr.sun_path))
    return Error("socket path too long: " + SocketPath);
  Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return errnoError("socket");
  Addr.sun_family = AF_UNIX;
  std::strncpy(Addr.sun_path, SocketPath.c_str(), sizeof(Addr.sun_path) - 1);
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    Error E = errnoError("connect " + SocketPath);
    close();
    return E;
  }
  return {};
}

Result<void> Client::connectTcp(const std::string &Host, uint16_t Port) {
  if (Fd != -1)
    return Error("already connected");
  Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return errnoError("socket");
  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(Port);
  if (::inet_pton(AF_INET, Host.c_str(), &Addr.sin_addr) != 1) {
    close();
    return Error("bad IPv4 address: " + Host);
  }
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    Error E =
        errnoError("connect " + Host + ":" + std::to_string(Port));
    close();
    return E;
  }
  return {};
}

Result<Response> Client::roundTrip(const Request &R) {
  if (Fd == -1)
    return Error("not connected");
  if (Result<void> W = writeFrame(Fd, encodeRequest(R)); !W)
    return W.error();
  std::vector<uint8_t> Payload;
  Result<bool> Got = readFrame(Fd, Payload);
  if (!Got)
    return Got.error();
  if (!*Got)
    return Error("server closed the connection before responding");
  return decodeResponse(Payload);
}

Result<Response> Client::submit(const JobSpec &Spec, uint64_t WaitMs) {
  Request R;
  R.Kind = RequestKind::Submit;
  R.Job = Spec;
  R.WaitMs = WaitMs;
  return roundTrip(R);
}

Result<Response> Client::status(uint64_t JobId, uint64_t WaitMs) {
  Request R;
  R.Kind = RequestKind::Status;
  R.JobId = JobId;
  R.WaitMs = WaitMs;
  return roundTrip(R);
}

Result<Response> Client::resume(uint64_t JobId, uint64_t SliceInstructions,
                                uint64_t WaitMs) {
  Request R;
  R.Kind = RequestKind::Resume;
  R.JobId = JobId;
  R.SliceInstructions = SliceInstructions;
  R.WaitMs = WaitMs;
  return roundTrip(R);
}

Result<Response> Client::cancel(uint64_t JobId) {
  Request R;
  R.Kind = RequestKind::Cancel;
  R.JobId = JobId;
  return roundTrip(R);
}

Result<Response> Client::stats() {
  Request R;
  R.Kind = RequestKind::Stats;
  return roundTrip(R);
}

Result<Response> Client::drain() {
  Request R;
  R.Kind = RequestKind::Drain;
  return roundTrip(R);
}

Result<Response> Client::stream(
    uint64_t JobId, uint64_t Offset,
    const std::function<void(uint64_t, const std::string &)> &OnData) {
  if (Fd == -1)
    return Error("not connected");
  Request R;
  R.Kind = RequestKind::Stream;
  R.JobId = JobId;
  R.StreamOffset = Offset;
  if (Result<void> W = writeFrame(Fd, encodeRequest(R)); !W)
    return W.error();
  std::vector<uint8_t> Payload;
  while (true) {
    Result<bool> Got = readFrame(Fd, Payload);
    if (!Got)
      return Got.error();
    if (!*Got)
      return Error("server closed the connection mid-stream");
    Result<Response> Resp = decodeResponse(Payload);
    if (!Resp)
      return Resp;
    if (Resp->Frame != DataFrame)
      return Resp; // the final frame (or a protocol-level error)
    if (OnData)
      OnData(Resp->StreamOffset, Resp->StreamData);
  }
}
