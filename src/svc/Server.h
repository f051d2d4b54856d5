//===- svc/Server.h - silverd socket front-end ------------------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The socket front-end of silverd: accepts connections on a Unix-domain
/// socket (or TCP on loopback behind ServerOptions::Tcp), reads framed
/// Requests, dispatches them to a RequestHandler, and writes framed
/// Responses — one connection-handling thread per client.  Every request
/// gets exactly one in-order response, except Stream requests, whose
/// reply is a sequence of data frames closed by one final frame (the
/// handler pushes them through a FrameSink).
///
/// The handler is an interface so the same transport serves two
/// personalities: ServiceHandler (a single execution shard — plain
/// silverd) and cluster::Dispatcher (the shard router of
/// `silverd --dispatch=N`).
///
/// Shutdown paths:
///   - stop():  closes the listener and shuts down live connections;
///     in-flight service jobs are untouched (the silverd process decides
///     whether to drain).
///   - a Drain request: the handler drains its backing work (finishing
///     all in-flight jobs), responds with final stats, then the
///     transport stops the server — the silverd SIGTERM path sends this
///     to itself via the client library.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_SVC_SERVER_H
#define SILVER_SVC_SERVER_H

#include "svc/Protocol.h"
#include "svc/Service.h"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace silver {
namespace svc {

/// Writes one response frame to the requesting connection; an error
/// means the socket died and the stream should be abandoned.
using FrameSink = std::function<Result<void>(const Response &)>;

/// What the transport serves.  One instance handles every connection
/// concurrently — implementations synchronize their own state.
class RequestHandler {
public:
  virtual ~RequestHandler() = default;

  /// All one-request-one-response kinds (everything but Stream).
  virtual Response handle(const Request &R) = 0;

  /// A Stream request: push zero or more data frames, then exactly one
  /// final frame, through \p Send.  \p Stopping turns true when the
  /// server is shutting down — poll it between blocking waits and cut
  /// the stream short (any final frame is acceptable then).  An error
  /// return means the connection is dead and will be dropped.
  virtual Result<void> handleStream(const Request &R, const FrameSink &Send,
                                    const std::function<bool()> &Stopping) = 0;
};

/// The single-shard personality: adapts an svc::Service.
class ServiceHandler : public RequestHandler {
public:
  explicit ServiceHandler(Service &Svc) : Svc(Svc) {}
  Response handle(const Request &R) override;
  Result<void> handleStream(const Request &R, const FrameSink &Send,
                            const std::function<bool()> &Stopping) override;

private:
  Service &Svc;
};

struct ServerOptions {
  /// Unix-domain socket path (the default transport).  A stale socket
  /// file from a dead server is unlinked before binding.
  std::string SocketPath;
  /// When true, listen on 127.0.0.1:TcpPort instead of the Unix socket.
  bool Tcp = false;
  uint16_t TcpPort = 0; ///< 0 = kernel-assigned; see boundPort()
};

class Server {
public:
  /// Single-shard convenience: wraps \p Svc in an owned ServiceHandler.
  /// \p Svc must outlive the server.
  Server(Service &Svc, ServerOptions Opts);
  /// Serves an arbitrary handler (the dispatcher front-end).  \p H must
  /// outlive the server.
  Server(RequestHandler &H, ServerOptions Opts);
  ~Server(); ///< stop() + join

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds and starts the accept loop (on its own thread).
  Result<void> start();

  /// Closes the listener, shuts down live connections, joins every
  /// connection thread.  Idempotent.
  void stop();

  /// True once stop() has been called (by anyone, including a Drain
  /// request handler).
  bool stopped() const { return StopFlag.load(std::memory_order_acquire); }

  /// The TCP port actually bound (after start(), Tcp mode only).
  uint16_t boundPort() const { return BoundPort; }

  /// Connections accepted since start (for tests/metrics).
  uint64_t connectionsAccepted() const {
    return Accepted.load(std::memory_order_relaxed);
  }

  /// Connection threads the server holds: serving, idle, or exited and
  /// not yet joined.
  size_t connectionThreads() const;

private:
  /// How long an idle connection thread waits for the next connection
  /// before it exits.
  static constexpr unsigned ConnIdleMs = 2000;
  /// How long the accept loop waits for a thread whose peer hung up to
  /// go idle before it starts a new one for a fresh connection.
  static constexpr unsigned HandoffGraceMs = 50;

  void acceptLoop();
  /// A connection thread's body: serves \p Fd, then each connection the
  /// accept loop hands over, until it idles out or the server stops.
  void connectionThread(uint64_t Id, int Fd);
  /// Serves one connection until it ends (the caller closes \p Fd).
  void serveConnection(int Fd);
  /// Joins the threads that have exited.
  void reapFinished();
  /// True when the peer of some live connection has hung up (its thread
  /// is finishing).  Caller holds ConnMu.
  bool anyPeerHungUp() const;

  std::unique_ptr<RequestHandler> Owned; ///< the Service convenience path
  RequestHandler &Handler;
  ServerOptions Opts;
  int ListenFd = -1;
  uint16_t BoundPort = 0;
  std::atomic<bool> StopFlag{false};
  std::atomic<uint64_t> Accepted{0};

  std::thread AcceptThread;
  mutable std::mutex ConnMu;
  std::set<int> LiveConns; ///< fds being served; shut down on stop()
  /// Connection threads by id.  A thread whose connection ended idles
  /// for ConnIdleMs, and the accept loop hands it the next connection
  /// instead of starting a thread (Handoff, IdleCv; WentIdleCv tells the
  /// accept loop a thread went idle).  A thread that idles out parks its
  /// id in Finished and the accept loop joins it within one poll
  /// interval.  So a long-running server holds threads, their stacks and
  /// their malloc arenas only for its peak of concurrent connections,
  /// not for every connection it ever accepted.
  std::map<uint64_t, std::thread> ConnThreads;
  std::vector<uint64_t> Finished;
  std::deque<int> Handoff;
  size_t IdleThreads = 0;
  std::condition_variable IdleCv;
  std::condition_variable WentIdleCv;
  uint64_t NextConnId = 0;
};

} // namespace svc
} // namespace silver

#endif // SILVER_SVC_SERVER_H
