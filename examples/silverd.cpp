//===- examples/silverd.cpp - the SilverStack batch execution daemon ----------===//
//
// Serves compile-and-run jobs over a Unix-domain socket (TCP on loopback
// behind --tcp):
//
//   silverd --socket=/tmp/silverd.sock                serve until SIGTERM
//   silverd --socket=S --workers=8 --queue-depth=128  sizing
//   silverd --tcp --port=0                            TCP; prints the port
//   silverd --instrument                              attach obs::Counters
//   silverd --idle-evict-ms=60000                     paused-session sweep
//   silverd --socket=S --journal=J                    write-ahead job journal:
//                                                     queued/paused jobs survive
//                                                     kill -9 and resume exactly
//   silverd --socket=S --client-share=0.25            per-client admission quota
//   silverd --socket=S --dispatch=4                   cluster mode: spawn 4 shard
//                                                     workers and route jobs to
//                                                     them by prepare key
//
// SIGTERM / SIGINT drain gracefully: admissions stop, every queued and
// running job finishes, paused sessions are parked, then the process
// exits 0.  Clients racing the shutdown get "service is draining"
// rejections, never a dropped response.
//
// In --dispatch mode this process owns the client socket and runs no
// jobs itself; each shard is a child silverd on a private socket
// (<socket>.shardK, pid in <socket>.shardK.pid) with its own journal
// (<journal>.shardK).  A shard that dies is detected, respawned, its
// journal replayed, and routing re-armed — in-flight pending work
// survives because the journals are per-shard, not dispatcher state.
//
//===----------------------------------------------------------------------===//

#include "stack/Stack.h"
#include "svc/Server.h"
#include "svc/Service.h"
#include "svc/cluster/Dispatcher.h"
#include "support/StringUtils.h"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

using namespace silver;

namespace {

volatile std::sig_atomic_t ShutdownRequested = 0;

void onSignal(int) { ShutdownRequested = 1; }

int usage() {
  std::fprintf(stderr,
               "usage: silverd --socket=PATH [--workers=N] [--queue-depth=N]\n"
               "               [--max-steps=N] [--slice-chunk=N]\n"
               "               [--idle-evict-ms=N] [--instrument]\n"
               "               [--journal=PATH] [--journal-sync]\n"
               "               [--client-share=F] [--dispatch=N]\n"
               "       silverd --tcp [--port=N] ...\n");
  return 1;
}

bool parseUnsigned(const std::string &Text, uint64_t &Out) {
  if (Text.empty())
    return false;
  uint64_t V = 0;
  for (char C : Text) {
    if (C < '0' || C > '9')
      return false;
    V = V * 10 + static_cast<uint64_t>(C - '0');
  }
  Out = V;
  return true;
}

bool parseShare(const std::string &Text, double &Out) {
  if (Text.empty())
    return false;
  char *End = nullptr;
  double V = std::strtod(Text.c_str(), &End);
  if (End != Text.c_str() + Text.size() || V <= 0.0 || V > 1.0)
    return false;
  Out = V;
  return true;
}

/// Shard bookkeeping for --dispatch mode.
struct ShardProc {
  pid_t Pid = -1;
  std::string Socket;
  std::string PidFile;
};

void writePidFile(const ShardProc &S) {
  if (std::FILE *F = std::fopen(S.PidFile.c_str(), "w")) {
    std::fprintf(F, "%ld\n", static_cast<long>(S.Pid));
    std::fclose(F);
  }
}

pid_t spawnShard(const char *Self, const std::vector<std::string> &Args) {
  pid_t Pid = ::fork();
  if (Pid != 0)
    return Pid; // parent (or fork failure, -1)
  std::vector<char *> Argv;
  Argv.push_back(const_cast<char *>(Self));
  for (const std::string &A : Args)
    Argv.push_back(const_cast<char *>(A.c_str()));
  Argv.push_back(nullptr);
  ::execv(Self, Argv.data());
  std::perror("silverd: execv shard");
  _exit(127);
}

/// Probes \p Socket with a Stats round trip until it answers or the
/// budget runs out.
bool waitShardReady(const std::string &Socket, int BudgetMs) {
  for (int Waited = 0; Waited < BudgetMs; Waited += 100) {
    svc::Client C;
    if (C.connectUnix(Socket)) {
      svc::Request R;
      R.Kind = svc::RequestKind::Stats;
      if (C.roundTrip(R))
        return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  return false;
}

int runDispatcher(const char *Self, const svc::ServerOptions &SrvOpts,
                  unsigned NumShards,
                  const std::vector<std::string> &ShardFlags,
                  const std::string &JournalBase) {
  if (SrvOpts.Tcp || SrvOpts.SocketPath.empty()) {
    std::fprintf(stderr,
                 "silverd: --dispatch requires a --socket=PATH front end\n");
    return 1;
  }

  std::vector<ShardProc> Procs(NumShards);
  auto ShardArgs = [&](unsigned I) {
    std::vector<std::string> Args = ShardFlags;
    Args.push_back("--socket=" + Procs[I].Socket);
    if (!JournalBase.empty())
      Args.push_back("--journal=" + JournalBase + ".shard" +
                     std::to_string(I));
    return Args;
  };
  std::vector<std::string> Sockets;
  for (unsigned I = 0; I != NumShards; ++I) {
    Procs[I].Socket =
        SrvOpts.SocketPath + ".shard" + std::to_string(I);
    Procs[I].PidFile = Procs[I].Socket + ".pid";
    Sockets.push_back(Procs[I].Socket);
  }
  for (unsigned I = 0; I != NumShards; ++I) {
    Procs[I].Pid = spawnShard(Self, ShardArgs(I));
    if (Procs[I].Pid < 0) {
      std::fprintf(stderr, "silverd: could not fork shard %u\n", I);
      return 1;
    }
    writePidFile(Procs[I]);
  }
  for (unsigned I = 0; I != NumShards; ++I)
    if (!waitShardReady(Procs[I].Socket, 10'000))
      std::fprintf(stderr, "silverd: shard %u slow to start; routing will "
                           "re-arm when it answers\n",
                   I);

  svc::cluster::DispatcherOptions DOpts;
  DOpts.ShardSockets = Sockets;
  DOpts.OnShardDown = [](size_t I) {
    std::fprintf(stderr, "silverd: shard %zu stopped answering\n", I);
  };
  svc::cluster::Dispatcher Dispatch(DOpts);

  svc::Server Srv(Dispatch, SrvOpts);
  if (Result<void> S = Srv.start(); !S) {
    std::fprintf(stderr, "silverd: error: %s\n", S.error().str().c_str());
    return 1;
  }
  std::printf("silverd: dispatching on %s to %u shards\n",
              SrvOpts.SocketPath.c_str(), NumShards);
  std::fflush(stdout);

  // The monitor reaps dead shard workers and respawns them: their
  // journal replays on startup, so queued and paused jobs survive even
  // a kill -9 of the shard.
  std::atomic<bool> MonitorStop{false};
  std::thread Monitor([&] {
    while (!MonitorStop.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(300));
      if (Dispatch.draining() || MonitorStop.load(std::memory_order_acquire))
        return;
      for (unsigned I = 0; I != NumShards; ++I) {
        int St = 0;
        if (::waitpid(Procs[I].Pid, &St, WNOHANG) != Procs[I].Pid)
          continue;
        if (Dispatch.draining())
          return; // died because the cluster is draining: let it rest
        std::fprintf(stderr, "silverd: shard %u (pid %ld) died; respawning\n",
                     I, static_cast<long>(Procs[I].Pid));
        Procs[I].Pid = spawnShard(Self, ShardArgs(I));
        writePidFile(Procs[I]);
        if (waitShardReady(Procs[I].Socket, 10'000))
          Dispatch.markHealthy(I);
      }
      Dispatch.checkHealth();
    }
  });

  while (!ShutdownRequested && !Srv.stopped())
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

  MonitorStop.store(true, std::memory_order_release);
  Monitor.join();

  std::fprintf(stderr, "silverd: draining cluster...\n");
  if (!Dispatch.draining()) // SIGTERM path; a client Drain already did this
    std::fputs(Dispatch.mergedStatsJson(/*Drain=*/true).c_str(), stderr);
  std::fputc('\n', stderr);
  Srv.stop();

  for (ShardProc &P : Procs) {
    // Shards exit by themselves once drained; escalate if one wedges.
    int St = 0;
    for (int Waited = 0; Waited < 10'000; Waited += 100) {
      if (::waitpid(P.Pid, &St, WNOHANG) == P.Pid) {
        P.Pid = -1;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    if (P.Pid != -1) {
      ::kill(P.Pid, SIGKILL);
      ::waitpid(P.Pid, &St, 0);
    }
    ::unlink(P.PidFile.c_str());
  }
  std::fprintf(stderr, "silverd: cluster drained, exiting\n");
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  svc::ServiceOptions SvcOpts;
  svc::ServerOptions SrvOpts;
  uint64_t DispatchShards = 0;
  std::string JournalPath;
  // Flags forwarded verbatim to shard workers in --dispatch mode
  // (everything that shapes a shard, minus the per-shard socket and
  // journal paths, which the dispatcher derives).
  std::vector<std::string> ShardFlags;

  for (int I = 1; I != Argc; ++I) {
    std::string A = Argv[I];
    uint64_t V = 0;
    double F = 0;
    if (startsWith(A, "--socket="))
      SrvOpts.SocketPath = A.substr(9);
    else if (A == "--tcp")
      SrvOpts.Tcp = true;
    else if (startsWith(A, "--port=") && parseUnsigned(A.substr(7), V))
      SrvOpts.TcpPort = static_cast<uint16_t>(V);
    else if (startsWith(A, "--dispatch=") && parseUnsigned(A.substr(11), V))
      DispatchShards = V;
    else if (startsWith(A, "--journal="))
      JournalPath = A.substr(10);
    else if (A == "--journal-sync") {
      SvcOpts.JournalSync = true;
      ShardFlags.push_back(A);
    } else if (startsWith(A, "--client-share=") &&
               parseShare(A.substr(15), F)) {
      SvcOpts.MaxClientShare = F;
      ShardFlags.push_back(A);
    } else if (startsWith(A, "--workers=") && parseUnsigned(A.substr(10), V)) {
      SvcOpts.Workers = static_cast<unsigned>(V);
      ShardFlags.push_back(A);
    } else if (startsWith(A, "--queue-depth=") &&
               parseUnsigned(A.substr(14), V)) {
      SvcOpts.QueueDepth = static_cast<size_t>(V);
      ShardFlags.push_back(A);
    } else if (startsWith(A, "--max-steps=") &&
               parseUnsigned(A.substr(12), V)) {
      SvcOpts.DefaultMaxSteps = V;
      ShardFlags.push_back(A);
    } else if (startsWith(A, "--slice-chunk=") &&
               parseUnsigned(A.substr(14), V)) {
      SvcOpts.ChunkInstructions = V;
      ShardFlags.push_back(A);
    } else if (startsWith(A, "--idle-evict-ms=") &&
               parseUnsigned(A.substr(16), V)) {
      SvcOpts.IdleEvictMs = V;
      ShardFlags.push_back(A);
    } else if (A == "--instrument") {
      SvcOpts.Instrument = true;
      ShardFlags.push_back(A);
    } else
      return usage();
  }
  if (!SrvOpts.Tcp && SrvOpts.SocketPath.empty())
    return usage();

  std::signal(SIGTERM, onSignal);
  std::signal(SIGINT, onSignal);
  std::signal(SIGPIPE, SIG_IGN); // client hangups surface as write errors

  if (DispatchShards)
    return runDispatcher(Argv[0], SrvOpts,
                         static_cast<unsigned>(DispatchShards), ShardFlags,
                         JournalPath);

  SvcOpts.JournalPath = JournalPath;
  svc::Service Svc(SvcOpts);
  svc::Server Srv(Svc, SrvOpts);
  if (Result<void> S = Srv.start(); !S) {
    std::fprintf(stderr, "silverd: error: %s\n", S.error().str().c_str());
    return 1;
  }
  if (SrvOpts.Tcp)
    std::printf("silverd: listening on 127.0.0.1:%u\n", Srv.boundPort());
  else
    std::printf("silverd: listening on %s\n", SrvOpts.SocketPath.c_str());
  std::printf("silverd: %u workers, queue depth %zu\n", SvcOpts.Workers,
              SvcOpts.QueueDepth);
  if (!JournalPath.empty()) {
    svc::Service::JournalStats JS = Svc.journalStats();
    std::printf("silverd: journal %s (%llu records replayed, %llu jobs "
                "recovered)\n",
                JournalPath.c_str(),
                static_cast<unsigned long long>(JS.ReplayedRecords),
                static_cast<unsigned long long>(JS.RecoveredJobs));
  }
  if (!stack::backendSupported(stack::BackendKind::Jit))
    std::printf("silverd: jit backend unsupported on this host; jit jobs "
                "run on the interpreter\n");
  std::fflush(stdout);

  // The server runs on its own threads; this loop only watches for the
  // two shutdown signals: a POSIX signal, or a Drain request having
  // stopped the server from within.
  while (!ShutdownRequested && !Srv.stopped())
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

  std::fprintf(stderr, "silverd: draining...\n");
  Svc.drain(); // in-flight jobs finish; admissions already rejected
  Srv.stop();  // then tear down the socket
  std::fprintf(stderr, "silverd: drained, exiting\n");
  std::fputs(Svc.statsJson().c_str(), stderr);
  std::fputc('\n', stderr);
  return 0;
}
