//===- svc/Server.cpp - silverd socket front-end ------------------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "svc/Server.h"

#include <cerrno>
#include <cstring>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace silver;
using namespace silver::svc;

Server::Server(Service &Svc, ServerOptions OptsIn)
    : Owned(std::make_unique<ServiceHandler>(Svc)), Handler(*Owned),
      Opts(std::move(OptsIn)) {}

Server::Server(RequestHandler &H, ServerOptions OptsIn)
    : Handler(H), Opts(std::move(OptsIn)) {}

Server::~Server() { stop(); }

Result<void> Server::start() {
  if (ListenFd != -1)
    return Error("server already started");

  if (Opts.Tcp) {
    ListenFd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (ListenFd < 0)
      return errnoError("socket");
    int One = 1;
    ::setsockopt(ListenFd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));
    sockaddr_in Addr{};
    Addr.sin_family = AF_INET;
    Addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    Addr.sin_port = htons(Opts.TcpPort);
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
        0) {
      Error E = errnoError("bind 127.0.0.1:" + std::to_string(Opts.TcpPort));
      ::close(ListenFd);
      ListenFd = -1;
      return E;
    }
    socklen_t Len = sizeof(Addr);
    if (::getsockname(ListenFd, reinterpret_cast<sockaddr *>(&Addr), &Len) ==
        0)
      BoundPort = ntohs(Addr.sin_port);
  } else {
    if (Opts.SocketPath.empty())
      return Error("no socket path configured");
    sockaddr_un Addr{};
    if (Opts.SocketPath.size() >= sizeof(Addr.sun_path))
      return Error("socket path too long: " + Opts.SocketPath);
    ListenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (ListenFd < 0)
      return errnoError("socket");
    // A previous server that died without cleanup leaves the file
    // behind; bind would fail with EADDRINUSE even though nobody
    // listens.
    ::unlink(Opts.SocketPath.c_str());
    Addr.sun_family = AF_UNIX;
    std::strncpy(Addr.sun_path, Opts.SocketPath.c_str(),
                 sizeof(Addr.sun_path) - 1);
    if (::bind(ListenFd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) <
        0) {
      Error E = errnoError("bind " + Opts.SocketPath);
      ::close(ListenFd);
      ListenFd = -1;
      return E;
    }
  }

  if (::listen(ListenFd, 64) < 0) {
    Error E = errnoError("listen");
    ::close(ListenFd);
    ListenFd = -1;
    return E;
  }
  if (::pipe2(WakeFds, O_CLOEXEC) < 0) {
    Error E = errnoError("pipe2");
    ::close(ListenFd);
    ListenFd = -1;
    return E;
  }

  AcceptThread = std::thread([this] { acceptLoop(); });
  return {};
}

void Server::stop() {
  bool Expected = false;
  if (!StopFlag.compare_exchange_strong(Expected, true,
                                        std::memory_order_acq_rel)) {
    // Second caller: still wait for the threads if the first pass is
    // racing us (the destructor path).
  }

  // Unblock any connection thread stuck in readFrame, and wake the idle
  // ones and the accept loop.
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    for (int Fd : LiveConns)
      ::shutdown(Fd, SHUT_RDWR);
  }
  IdleCv.notify_all();
  wake();

  if (AcceptThread.joinable())
    AcceptThread.join();

  std::map<uint64_t, std::thread> ToJoin;
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    ToJoin.swap(ConnThreads);
    Finished.clear();
  }
  for (auto &[Id, T] : ToJoin)
    T.join();
  // Connections handed to a thread that stopped before taking them.
  for (int Fd : Handoff)
    ::close(Fd);
  Handoff.clear();

  if (ListenFd != -1) {
    ::close(ListenFd);
    ListenFd = -1;
    if (!Opts.Tcp && !Opts.SocketPath.empty())
      ::unlink(Opts.SocketPath.c_str());
  }
  for (int &Fd : WakeFds)
    if (Fd != -1) {
      ::close(Fd);
      Fd = -1;
    }
}

void Server::wake() {
  // One byte is enough: the loop stops once it sees StopFlag, so the
  // pipe is never drained and never fills.
  if (WakeFds[1] != -1) {
    char Byte = 1;
    [[maybe_unused]] ssize_t N = ::write(WakeFds[1], &Byte, 1);
  }
}

size_t Server::connectionThreads() const {
  std::lock_guard<std::mutex> Lock(ConnMu);
  return ConnThreads.size();
}

void Server::reapFinished() {
  std::vector<std::thread> Done;
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    for (uint64_t Id : Finished) {
      auto It = ConnThreads.find(Id);
      if (It == ConnThreads.end())
        continue;
      Done.push_back(std::move(It->second));
      ConnThreads.erase(It);
    }
    Finished.clear();
  }
  // Each has at most its final unlock left to run.
  for (std::thread &T : Done)
    T.join();
}

bool Server::anyPeerHungUp() const {
  std::vector<pollfd> Fds;
  for (int Fd : LiveConns)
    Fds.push_back({Fd, POLLRDHUP, 0});
  if (Fds.empty() || ::poll(Fds.data(), Fds.size(), 0) <= 0)
    return false;
  for (const pollfd &P : Fds)
    if (P.revents & (POLLRDHUP | POLLHUP))
      return true;
  return false;
}

void Server::acceptLoop() {
  while (!StopFlag.load(std::memory_order_acquire)) {
    reapFinished();
    pollfd P[2] = {{ListenFd, POLLIN, 0}, {WakeFds[0], POLLIN, 0}};
    int N = ::poll(P, 2, AcceptPollMs);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    if (N == 0 || !(P[0].revents & POLLIN))
      continue;
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      // Out of descriptors: the pending connection keeps the listener
      // readable, so retrying at once would spin.  Wait for connections
      // to close and free some.
      if (errno == EMFILE || errno == ENFILE)
        std::this_thread::sleep_for(std::chrono::milliseconds(AcceptPollMs));
      continue;
    }
    Accepted.fetch_add(1, std::memory_order_relaxed);
    std::unique_lock<std::mutex> Lock(ConnMu);
    if (StopFlag.load(std::memory_order_acquire)) {
      ::close(Fd);
      return;
    }
    // Prefer an idle thread.  When none is idle but some served
    // connection's peer has already hung up (a client that reconnects
    // right after closing), that thread is about to go idle: wait for it
    // rather than start another.
    auto HasIdle = [this] { return IdleThreads > Handoff.size(); };
    if (!HasIdle() && anyPeerHungUp()) {
      WentIdleCv.wait_for(Lock, std::chrono::milliseconds(HandoffGraceMs),
                          HasIdle);
      if (StopFlag.load(std::memory_order_acquire)) {
        ::close(Fd);
        return;
      }
    }
    LiveConns.insert(Fd);
    if (HasIdle()) {
      Handoff.push_back(Fd);
      IdleCv.notify_one();
      continue;
    }
    uint64_t Id = NextConnId++;
    ConnThreads.emplace(Id, std::thread([this, Id, Fd] {
                          connectionThread(Id, Fd);
                        }));
  }
}

void Server::connectionThread(uint64_t Id, int Fd) {
  std::unique_lock<std::mutex> Lock(ConnMu);
  while (true) {
    Lock.unlock();
    serveConnection(Fd);
    Lock.lock();
    // Closed under the lock, after the erase: accept() may reuse the fd
    // number at once, and the accept loop must never see it stale.
    LiveConns.erase(Fd);
    ::close(Fd);
    // Idle: wait for the accept loop to hand over the next connection.
    ++IdleThreads;
    WentIdleCv.notify_one();
    IdleCv.wait_for(Lock, std::chrono::milliseconds(ConnIdleMs), [this] {
      return !Handoff.empty() || StopFlag.load(std::memory_order_acquire);
    });
    --IdleThreads;
    if (Handoff.empty() || StopFlag.load(std::memory_order_acquire))
      break;
    Fd = Handoff.front();
    Handoff.pop_front();
  }
  Finished.push_back(Id);
}

void Server::serveConnection(int Fd) {
  std::vector<uint8_t> Payload;
  while (!StopFlag.load(std::memory_order_acquire)) {
    Result<bool> Got = readFrame(Fd, Payload);
    if (!Got || !*Got)
      break; // protocol error or clean hangup: drop the connection
    Result<Request> Req = decodeRequest(Payload);
    if (Req && Req->Kind == RequestKind::Stream) {
      // Multi-frame reply: data frames then one final frame, pushed by
      // the handler (handle() is one-request-one-response).
      FrameSink Send = [Fd](const Response &R) {
        return writeFrame(Fd, encodeResponse(R));
      };
      auto Stopping = [this] {
        return StopFlag.load(std::memory_order_acquire);
      };
      if (!Handler.handleStream(*Req, Send, Stopping))
        break;
      continue;
    }
    Response Resp;
    if (!Req) {
      Resp.Ok = false;
      Resp.Error = "bad request: " + Req.error().str();
    } else {
      Resp = Handler.handle(*Req);
    }
    if (!writeFrame(Fd, encodeResponse(Resp)))
      break;
    // A Drain request stops the server once its response is on the
    // wire: the client sees final stats, then the socket goes away.
    if (Req && Req->Kind == RequestKind::Drain) {
      StopFlag.store(true, std::memory_order_release);
      wake();
      break;
    }
  }
}

//===----------------------------------------------------------------------===//
// ServiceHandler: the single-shard personality
//===----------------------------------------------------------------------===//

Result<void> ServiceHandler::handleStream(const Request &R,
                                          const FrameSink &Send,
                                          const std::function<bool()> &Stopping) {
  uint64_t Offset = R.StreamOffset;
  while (!Stopping()) {
    // Bounded waits so stop() is noticed even while the job is silent.
    Result<Service::StreamChunk> C =
        Svc.streamOutput(R.JobId, Offset, /*WaitMs=*/200, MaxStreamChunk);
    if (!C) {
      Response Resp;
      Resp.Ok = false;
      Resp.Error = C.error().str();
      Resp.StreamOffset = Offset;
      return Send(Resp);
    }
    if (!C->Data.empty()) {
      Response Resp;
      Resp.Ok = true;
      Resp.Frame = DataFrame;
      Resp.StreamOffset = C->Offset;
      Resp.StreamData = std::move(C->Data);
      // The blocking socket write IS the backpressure: a slow consumer
      // stalls its connection thread only — workers publish into the
      // service-side buffer and move on.
      if (Result<void> W = Send(Resp); !W)
        return W;
      Svc.noteStreamFrame();
      Offset = Resp.StreamOffset + Resp.StreamData.size();
      continue;
    }
    if (C->State == JobState::Queued || C->State == JobState::Running)
      continue; // still producing: wait for more
    // Parked or terminal with everything delivered: close the stream
    // with the job's latest snapshot (State tells a paused job apart
    // from a finished one).
    Response Resp;
    Resp.Ok = true;
    Resp.Frame = FinalFrame;
    Resp.StreamOffset = Offset;
    if (std::optional<JobInfo> Info = Svc.status(R.JobId))
      Resp.Info = *Info;
    return Send(Resp);
  }
  Response Resp;
  Resp.Ok = false;
  Resp.Error = "server stopping";
  Resp.StreamOffset = Offset;
  return Send(Resp);
}

Response ServiceHandler::handle(const Request &R) {
  Response Resp;
  switch (R.Kind) {
  case RequestKind::Submit: {
    JobInfo Info = Svc.submit(R.Job);
    if (Info.State == JobState::Rejected) {
      Resp.Ok = false;
      Resp.Error = Info.Outcome.Error;
      Resp.Info = Info;
      return Resp;
    }
    if (R.WaitMs) {
      if (std::optional<JobInfo> Settled = Svc.waitSettled(Info.Id, R.WaitMs))
        Info = *Settled;
    }
    Resp.Ok = true;
    Resp.Info = Info;
    return Resp;
  }
  case RequestKind::Status: {
    std::optional<JobInfo> Info = R.WaitMs
                                      ? Svc.waitSettled(R.JobId, R.WaitMs)
                                      : Svc.status(R.JobId);
    if (!Info) {
      Resp.Ok = false;
      Resp.Error = "unknown job " + std::to_string(R.JobId);
      return Resp;
    }
    Resp.Ok = true;
    Resp.Info = *Info;
    return Resp;
  }
  case RequestKind::Resume: {
    Result<JobInfo> Info = Svc.resume(R.JobId, R.SliceInstructions);
    if (!Info) {
      Resp.Ok = false;
      Resp.Error = Info.error().str();
      return Resp;
    }
    Resp.Ok = true;
    Resp.Info = *Info;
    if (R.WaitMs) {
      if (std::optional<JobInfo> Settled = Svc.waitSettled(R.JobId, R.WaitMs))
        Resp.Info = *Settled;
    }
    return Resp;
  }
  case RequestKind::Cancel: {
    Result<JobInfo> Info = Svc.cancel(R.JobId);
    if (!Info) {
      Resp.Ok = false;
      Resp.Error = Info.error().str();
      return Resp;
    }
    Resp.Ok = true;
    Resp.Info = *Info;
    return Resp;
  }
  case RequestKind::Stats: {
    Resp.Ok = true;
    Resp.StatsJson = Svc.statsJson();
    return Resp;
  }
  case RequestKind::Drain: {
    Svc.drain();
    Resp.Ok = true;
    Resp.StatsJson = Svc.statsJson();
    return Resp;
  }
  case RequestKind::Stream:
    // Intercepted in serveConnection; reaching here is a logic error.
    Resp.Ok = false;
    Resp.Error = "stream requests are handled per-connection";
    return Resp;
  }
  Resp.Ok = false;
  Resp.Error = "unhandled request kind";
  return Resp;
}
