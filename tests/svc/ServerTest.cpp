//===- tests/svc/ServerTest.cpp - loopback socket serving ---------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
// Drives a real Server+Service over its socket transports: concurrent
// clients with mixed workloads, every response accounted for, the drain
// request finishing in-flight work, and finished connections releasing
// their threads.
//
//===----------------------------------------------------------------------===//

#include "svc/Client.h"
#include "svc/Server.h"
#include "svc/Service.h"

#include "stack/Apps.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <thread>
#include <unistd.h>

using namespace silver;
using namespace silver::svc;

namespace {

std::string uniqueSocketPath(const char *Tag) {
  return "/tmp/silver_svc_" + std::string(Tag) + "_" +
         std::to_string(::getpid()) + ".sock";
}

JobSpec helloJob() {
  JobSpec S;
  S.Source = stack::helloSource();
  S.CommandLine = {"hello"};
  return S;
}

JobSpec wcJob() {
  JobSpec S;
  S.Source = stack::wcSource();
  S.CommandLine = {"wc"};
  S.StdinData = stack::randomLines(20, 1);
  return S;
}

TEST(Server, UnixSocketRoundTrip) {
  Service Svc({.Workers = 2});
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath("rt");
  Server Srv(Svc, Opts);
  ASSERT_TRUE(bool(Srv.start()));

  Client C;
  ASSERT_TRUE(bool(C.connectUnix(Opts.SocketPath)));
  Result<Response> R = C.submit(helloJob(), /*WaitMs=*/60'000);
  ASSERT_TRUE(bool(R)) << R.error().str();
  ASSERT_TRUE(R->Ok) << R->Error;
  EXPECT_EQ(R->Info.State, JobState::Completed);
  EXPECT_EQ(R->Info.Outcome.Behaviour.StdoutData, "Hello, world!\n");

  // Several requests ride the same connection.
  Result<Response> S = C.status(R->Info.Id);
  ASSERT_TRUE(bool(S));
  ASSERT_TRUE(S->Ok) << S->Error;
  EXPECT_EQ(S->Info.State, JobState::Completed);
  Result<Response> Stats = C.stats();
  ASSERT_TRUE(bool(Stats));
  ASSERT_TRUE(Stats->Ok);
  EXPECT_NE(Stats->StatsJson.find("silverd-stats-v1"), std::string::npos);

  Srv.stop();
}

/// This process's virtual size in MB (VmSize in /proc/self/status).
double vmSizeMb() {
  std::ifstream In("/proc/self/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmSize:", 0) == 0)
      return std::strtod(Line.c_str() + 7, nullptr) / 1024.0;
  return 0;
}

TEST(Server, SequentialConnectionsDoNotAccumulateThreads) {
  // Every finished connection used to keep its thread (and its stack
  // mapping) until stop(): 2,000 connections were ~16 GB of VmSize.
  ServiceOptions SvcOpts;
  SvcOpts.Workers = 1;
  Service Svc(SvcOpts);
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath("reap");
  Server Srv(Svc, Opts);
  ASSERT_TRUE(bool(Srv.start()));

  size_t MaxRetained = 0;
  auto Connect = [&](unsigned Count) {
    for (unsigned I = 0; I != Count; ++I) {
      Client C;
      ASSERT_TRUE(bool(C.connectUnix(Opts.SocketPath))) << "connection " << I;
      Result<Response> R = C.stats();
      ASSERT_TRUE(bool(R)) << R.error().str();
      ASSERT_TRUE(R->Ok);
      MaxRetained = std::max(MaxRetained, Srv.connectionThreads());
    }
  };
  // Warm-up: the first connection threads map their stacks and malloc
  // arenas (about 72 MB of VmSize each); that is a one-time cost.
  const unsigned WarmUp = 200, Connections = 2000;
  Connect(WarmUp);
  double VmBefore = vmSizeMb();
  Connect(Connections);
  double VmGrowth = vmSizeMb() - VmBefore;
  EXPECT_EQ(Srv.connectionsAccepted(), WarmUp + Connections);
  // A finished connection's thread takes the next connection, so
  // sequential clients need one or two threads, not one each.
  EXPECT_LE(MaxRetained, 4u);
  EXPECT_LT(VmGrowth, 64.0) << "VmSize grew " << VmGrowth << " MB";
  Srv.stop();
  EXPECT_EQ(Srv.connectionThreads(), 0u);
}

TEST(Server, TcpLoopbackRoundTrip) {
  Service Svc({.Workers = 1});
  ServerOptions Opts;
  Opts.Tcp = true;
  Opts.TcpPort = 0; // kernel-assigned
  Server Srv(Svc, Opts);
  ASSERT_TRUE(bool(Srv.start()));
  ASSERT_NE(Srv.boundPort(), 0);

  Client C;
  ASSERT_TRUE(bool(C.connectTcp("127.0.0.1", Srv.boundPort())));
  Result<Response> R = C.submit(helloJob(), 60'000);
  ASSERT_TRUE(bool(R)) << R.error().str();
  ASSERT_TRUE(R->Ok) << R->Error;
  EXPECT_EQ(R->Info.State, JobState::Completed);
  Srv.stop();
}

TEST(Server, UnknownJobIdGetsAnErrorResponse) {
  Service Svc({.Workers = 1});
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath("err");
  Server Srv(Svc, Opts);
  ASSERT_TRUE(bool(Srv.start()));
  Client C;
  ASSERT_TRUE(bool(C.connectUnix(Opts.SocketPath)));
  Result<Response> R = C.status(424242);
  ASSERT_TRUE(bool(R));
  EXPECT_FALSE(R->Ok);
  EXPECT_FALSE(R->Error.empty());
  // The connection survives an error response.
  Result<Response> Stats = C.stats();
  ASSERT_TRUE(bool(Stats));
  EXPECT_TRUE(Stats->Ok);
  Srv.stop();
}

TEST(Server, EightConcurrentClientsMixedLevelsNothingLost) {
  Service Svc({.Workers = 4, .QueueDepth = 64});
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath("conc");
  Server Srv(Svc, Opts);
  ASSERT_TRUE(bool(Srv.start()));

  constexpr unsigned Clients = 8;
  constexpr unsigned JobsPerClient = 3;
  std::string WcExpected = stack::wcSpec(stack::randomLines(20, 1));
  std::atomic<unsigned> Completed{0};
  std::vector<std::string> Failures(Clients);
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I != Clients; ++I)
    Threads.emplace_back([&, I] {
      Client C;
      if (Result<void> R = C.connectUnix(Opts.SocketPath); !R) {
        Failures[I] = R.error().str();
        return;
      }
      for (unsigned J = 0; J != JobsPerClient; ++J) {
        bool Wc = (I + J) % 2 == 0;
        Result<Response> R = C.submit(Wc ? wcJob() : helloJob(), 120'000);
        if (!R) {
          Failures[I] = R.error().str();
          return;
        }
        if (!R->Ok || R->Info.State != JobState::Completed) {
          Failures[I] = R->Ok ? std::string("state ") +
                                    jobStateName(R->Info.State)
                              : R->Error;
          return;
        }
        const std::string &Out = R->Info.Outcome.Behaviour.StdoutData;
        if (Out != (Wc ? WcExpected : "Hello, world!\n")) {
          Failures[I] = "wrong stdout: " + Out;
          return;
        }
        Completed.fetch_add(1);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (unsigned I = 0; I != Clients; ++I)
    EXPECT_EQ(Failures[I], "") << "client " << I;
  EXPECT_EQ(Completed.load(), Clients * JobsPerClient);
  Srv.stop();
}

TEST(Server, StreamDeliversDataFramesThenAFinalResponse) {
  Service Svc({.Workers = 1});
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath("stream");
  Server Srv(Svc, Opts);
  ASSERT_TRUE(bool(Srv.start()));

  Client Submitter;
  ASSERT_TRUE(bool(Submitter.connectUnix(Opts.SocketPath)));
  JobSpec S = wcJob();
  S.LiveOutput = true;
  Result<Response> Sub = Submitter.submit(S, /*WaitMs=*/0);
  ASSERT_TRUE(bool(Sub));
  ASSERT_TRUE(Sub->Ok) << Sub->Error;
  uint64_t Id = Sub->Info.Id;

  // A second connection subscribes to the stream while the job runs.
  Client Streamer;
  ASSERT_TRUE(bool(Streamer.connectUnix(Opts.SocketPath)));
  std::string Got;
  uint64_t NextOffset = 0;
  bool Contiguous = true;
  Result<Response> Final =
      Streamer.stream(Id, 0, [&](uint64_t Offset, const std::string &Data) {
        Contiguous = Contiguous && Offset == NextOffset;
        Got += Data;
        NextOffset = Offset + Data.size();
      });
  ASSERT_TRUE(bool(Final)) << Final.error().str();
  ASSERT_TRUE(Final->Ok) << Final->Error;
  EXPECT_EQ(Final->Frame, FinalFrame);
  EXPECT_EQ(Final->Info.State, JobState::Completed);
  EXPECT_TRUE(Contiguous);
  EXPECT_EQ(Got, stack::wcSpec(stack::randomLines(20, 1)));

  // The server counted the outgoing data frames.
  Result<Response> Stats = Streamer.stats();
  ASSERT_TRUE(bool(Stats));
  EXPECT_EQ(Stats->StatsJson.find("\"frames_sent\":0"), std::string::npos);
  EXPECT_NE(Stats->StatsJson.find("\"stream\""), std::string::npos);
  Srv.stop();
}

TEST(Server, StreamOfUnknownJobGetsAnErrorFinalFrame) {
  Service Svc({.Workers = 1});
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath("streamerr");
  Server Srv(Svc, Opts);
  ASSERT_TRUE(bool(Srv.start()));
  Client C;
  ASSERT_TRUE(bool(C.connectUnix(Opts.SocketPath)));
  Result<Response> R = C.stream(424242, 0, [](uint64_t, const std::string &) {
    FAIL() << "no data frames for an unknown job";
  });
  ASSERT_TRUE(bool(R)) << R.error().str();
  EXPECT_FALSE(R->Ok);
  EXPECT_FALSE(R->Error.empty());
  // The connection survives the error final frame.
  Result<Response> Stats = C.stats();
  ASSERT_TRUE(bool(Stats));
  EXPECT_TRUE(Stats->Ok);
  Srv.stop();
}

TEST(Server, DrainRequestFinishesInFlightWorkAndStopsTheServer) {
  Service Svc({.Workers = 2});
  ServerOptions Opts;
  Opts.SocketPath = uniqueSocketPath("drain");
  Server Srv(Svc, Opts);
  ASSERT_TRUE(bool(Srv.start()));

  // Async submissions that will still be queued when drain arrives.
  Client Submitter;
  ASSERT_TRUE(bool(Submitter.connectUnix(Opts.SocketPath)));
  std::vector<uint64_t> Ids;
  for (int I = 0; I != 6; ++I) {
    Result<Response> R = Submitter.submit(wcJob(), /*WaitMs=*/0);
    ASSERT_TRUE(bool(R));
    ASSERT_TRUE(R->Ok) << R->Error;
    Ids.push_back(R->Info.Id);
  }

  Client Drainer;
  ASSERT_TRUE(bool(Drainer.connectUnix(Opts.SocketPath)));
  Result<Response> D = Drainer.drain();
  ASSERT_TRUE(bool(D)) << D.error().str();
  ASSERT_TRUE(D->Ok);
  EXPECT_NE(D->StatsJson.find("\"draining\":true"), std::string::npos);

  // Drain stopped the server from within; join its threads.
  Srv.stop();
  EXPECT_TRUE(Srv.stopped());

  // Every in-flight job finished — none were killed by the shutdown.
  for (uint64_t Id : Ids) {
    std::optional<JobInfo> Info = Svc.status(Id);
    ASSERT_TRUE(Info.has_value());
    EXPECT_EQ(Info->State, JobState::Completed) << Info->Outcome.Error;
  }
}

} // namespace
