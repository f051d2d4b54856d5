//===- bench/bench_svc.cpp - service worker-pool scaling ----------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
// Measures svc::Service job throughput on the interpreter-bound wc-200
// workload across worker-pool sizes,
// and reports the scaling ratio of the largest pool over one worker.
// Every job submits the same source, so after the first compilation the
// prepare cache makes this a pure execution-scaling measurement.
//
// A second sweep measures the cluster tier: an in-process dispatcher
// (svc::cluster::Dispatcher, the engine of `silverd --dispatch=N`) over
// N shard Service+Server pairs on real Unix sockets, with concurrent
// clients submitting through the front socket.  The workload is a set
// of source variants picked so rendezvous routing spreads them evenly
// over the shards — the aggregate-throughput story of the sharded
// daemon, dispatcher relay overhead included.
//
//   bench_svc [--jobs=N] [--workers=a,b,c] [--out=FILE]
//             [--assert-scaling=F]
//             [--shards=a,b,c] [--shard-workers=N]
//             [--assert-shard-scaling=F]
//
// Every cell (a pool size, a shard count) runs Reps = 5 times, the
// sweep alternating forward and backward, and BENCH_svc.json records
// each cell's median and median absolute deviation (MAD).
//
// --assert-scaling=F fails with exit 3 when the largest pool's median
// fails to reach F x the single-worker median — but only when the machine
// has at least as many hardware threads as workers: on a 1-CPU
// container the workers timeshare one core and no scaling is physically
// possible, so the JSON records "cpus" and the assertion is reported as
// skipped rather than lying either way.  CI runs this on multi-core
// runners where the assertion is real.  --assert-shard-scaling is the
// same contract for the dispatcher sweep, gated on
// cpus >= largest-shard-count x shard-workers.
//
//===----------------------------------------------------------------------===//

#include "stack/Apps.h"
#include "svc/Client.h"
#include "svc/Server.h"
#include "svc/Service.h"
#include "svc/cluster/Dispatcher.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace silver;

namespace {

/// Timed passes of every cell.  Each pass sweeps all cells, forward on
/// even passes and backward on odd ones, so drift over the run spreads
/// over the cells instead of landing on whichever runs last.
constexpr unsigned Reps = 5;

/// One timed pass of one cell: a batch of jobs, start to last settle.
struct Sample {
  uint64_t TotalInstructions = 0;
  uint64_t WallNs = 0;
};

/// Median and median absolute deviation.
struct Spread {
  double Median = 0;
  double Mad = 0;
};

double median(std::vector<double> Xs) {
  std::sort(Xs.begin(), Xs.end());
  size_t N = Xs.size();
  if (N == 0)
    return 0;
  return N % 2 ? Xs[N / 2] : (Xs[N / 2 - 1] + Xs[N / 2]) / 2;
}

Spread spreadOf(const std::vector<double> &Xs) {
  Spread S;
  S.Median = median(Xs);
  std::vector<double> Dev;
  for (double X : Xs)
    Dev.push_back(std::fabs(X - S.Median));
  S.Mad = median(Dev);
  return S;
}

/// One configuration of a sweep: \p Units workers in the pool sweep, or
/// shards in the dispatcher sweep, with its samples and their spread.
struct Cell {
  explicit Cell(unsigned Units) : Units(Units) {}

  unsigned Units;
  std::vector<Sample> Samples;
  Spread WallNs, JobsPerSec, InstrPerSec; ///< filled by summarize()

  void summarize(unsigned Jobs) {
    std::vector<double> Wall, JobsPs, InstrPs;
    for (const Sample &S : Samples) {
      double Seconds = static_cast<double>(S.WallNs) * 1e-9;
      Wall.push_back(static_cast<double>(S.WallNs));
      JobsPs.push_back(Jobs / Seconds);
      InstrPs.push_back(static_cast<double>(S.TotalInstructions) / Seconds);
    }
    WallNs = spreadOf(Wall);
    JobsPerSec = spreadOf(JobsPs);
    InstrPerSec = spreadOf(InstrPs);
  }
};

/// The largest cell's median jobs/s over the one-unit cell's, or 0 when
/// the sweep lacks either.
double scalingOf(const std::vector<Cell> &Cells, const Cell *&One,
                 const Cell *&Largest) {
  One = Largest = nullptr;
  for (const Cell &C : Cells) {
    if (C.Units == 1)
      One = &C;
    if (!Largest || C.Units > Largest->Units)
      Largest = &C;
  }
  if (!One || One == Largest || One->JobsPerSec.Median <= 0)
    return 0;
  return Largest->JobsPerSec.Median / One->JobsPerSec.Median;
}

int usage(const char *Argv0) {
  std::fprintf(stderr,
               "usage: %s [--jobs=N] [--workers=a,b,c] [--out=FILE]\n"
               "          [--assert-scaling=F]\n"
               "          [--shards=a,b,c] [--shard-workers=N]\n"
               "          [--assert-shard-scaling=F]\n",
               Argv0);
  return 2;
}

Result<Sample> runConfig(unsigned Workers, unsigned Jobs,
                         const svc::JobSpec &Spec) {
  svc::ServiceOptions Opts;
  Opts.Workers = Workers;
  Opts.QueueDepth = Jobs + 8;
  svc::Service Svc(Opts);

  // Warm the prepare cache so compilation is outside the timed region.
  {
    svc::JobInfo W = Svc.submit(Spec);
    if (W.State == svc::JobState::Rejected)
      return Error("warmup submit rejected: " + W.Outcome.Error);
    std::optional<svc::JobInfo> Done = Svc.waitSettled(W.Id, 120'000);
    if (!Done || Done->State != svc::JobState::Completed)
      return Error("warmup job did not complete" +
                   (Done ? std::string(": ") +
                               svc::jobStateName(Done->State) +
                               (Done->Outcome.Error.empty()
                                    ? ""
                                    : " (" + Done->Outcome.Error + ")")
                         : std::string()));
  }

  auto T0 = std::chrono::steady_clock::now();
  std::vector<uint64_t> Ids;
  Ids.reserve(Jobs);
  for (unsigned I = 0; I != Jobs; ++I) {
    svc::JobInfo Info = Svc.submit(Spec);
    if (Info.State == svc::JobState::Rejected)
      return Error("submit rejected: " + Info.Outcome.Error);
    Ids.push_back(Info.Id);
  }
  Sample R;
  for (uint64_t Id : Ids) {
    std::optional<svc::JobInfo> Done = Svc.waitSettled(Id, 300'000);
    if (!Done || Done->State != svc::JobState::Completed)
      return Error("job " + std::to_string(Id) + " did not complete");
    R.TotalInstructions += Done->Outcome.Behaviour.Instructions;
  }
  auto T1 = std::chrono::steady_clock::now();
  R.WallNs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(T1 - T0).count());
  return R;
}

/// Variant \p V of the base workload: same program plus a distinct
/// no-op binding, so every variant has its own prepare key and the
/// rendezvous router can spread the set over the shards.
svc::JobSpec variantSpec(const svc::JobSpec &Base, unsigned V) {
  svc::JobSpec S = Base;
  S.Source += "\nval bench_variant_" + std::to_string(V) + " = 0\n";
  return S;
}

/// Measures aggregate job throughput through a dispatcher over
/// \p Shards in-process shard servers (\p Workers workers each), with
/// one concurrent client per job submitting over the front socket.
Result<Sample> runCluster(unsigned Shards, unsigned Workers, unsigned Jobs,
                          const svc::JobSpec &Base) {
  struct ShardNode {
    std::unique_ptr<svc::Service> Svc;
    std::unique_ptr<svc::Server> Srv;
    std::string Socket;
  };
  std::vector<ShardNode> Nodes(Shards);
  svc::cluster::DispatcherOptions DOpts;
  for (unsigned I = 0; I != Shards; ++I) {
    ShardNode &N = Nodes[I];
    N.Socket = "/tmp/silver_bench_svc_" + std::to_string(::getpid()) +
               "_s" + std::to_string(Shards) + "_" + std::to_string(I) +
               ".sock";
    svc::ServiceOptions SvcOpts;
    SvcOpts.Workers = Workers;
    SvcOpts.QueueDepth = Jobs + 8;
    N.Svc = std::make_unique<svc::Service>(SvcOpts);
    svc::ServerOptions SrvOpts;
    SrvOpts.SocketPath = N.Socket;
    N.Srv = std::make_unique<svc::Server>(*N.Svc, SrvOpts);
    if (Result<void> S = N.Srv->start(); !S)
      return Error("shard " + std::to_string(I) + ": " + S.error().str());
    DOpts.ShardSockets.push_back(N.Socket);
  }
  svc::cluster::Dispatcher Dispatch(DOpts);
  std::string Front = "/tmp/silver_bench_svc_" + std::to_string(::getpid()) +
                      "_s" + std::to_string(Shards) + "_front.sock";
  svc::ServerOptions FrontOpts;
  FrontOpts.SocketPath = Front;
  svc::Server FrontSrv(Dispatch, FrontOpts);
  if (Result<void> S = FrontSrv.start(); !S)
    return Error("front server: " + S.error().str());
  auto Teardown = [&] {
    FrontSrv.stop();
    for (ShardNode &N : Nodes)
      N.Srv->stop();
  };

  // Pick Jobs variants whose rendezvous routes fill every shard to
  // exactly Jobs/Shards — a balanced key population, so the measurement
  // is shard-parallelism, not hash luck.
  std::vector<svc::JobSpec> Work;
  {
    std::vector<unsigned> Quota(Shards, Jobs / Shards);
    for (unsigned I = 0; I != Jobs % Shards; ++I)
      ++Quota[I];
    unsigned V = 0;
    while (Work.size() != Jobs && V != Jobs * 64) {
      svc::JobSpec S = variantSpec(Base, V++);
      std::optional<size_t> Route = Dispatch.routeOf(S);
      if (!Route) {
        Teardown();
        return Error("no healthy shard while planning the workload");
      }
      if (Quota[*Route]) {
        --Quota[*Route];
        Work.push_back(std::move(S));
      }
    }
    if (Work.size() != Jobs) {
      Teardown();
      return Error("could not balance the workload over the shards");
    }
  }

  // Warm every variant once so compilation happens outside the timed
  // region and each shard's prepare cache is hot.
  for (const svc::JobSpec &S : Work) {
    svc::Client C;
    if (Result<void> R = C.connectUnix(Front); !R) {
      Teardown();
      return Error("warmup connect: " + R.error().str());
    }
    Result<svc::Response> R = C.submit(S, 300'000);
    if (!R || !R->Ok || R->Info.State != svc::JobState::Completed) {
      Teardown();
      return Error("warmup job did not complete" +
                   (R && !R->Error.empty() ? ": " + R->Error : std::string()));
    }
  }

  Sample Row;
  std::mutex Mu;
  std::string FirstError;
  auto T0 = std::chrono::steady_clock::now();
  std::vector<std::thread> Clients;
  Clients.reserve(Jobs);
  for (unsigned I = 0; I != Jobs; ++I)
    Clients.emplace_back([&, I] {
      svc::Client C;
      std::string Err;
      if (Result<void> R = C.connectUnix(Front); !R)
        Err = R.error().str();
      else if (Result<svc::Response> R = C.submit(Work[I], 300'000); !R)
        Err = R.error().str();
      else if (!R->Ok)
        Err = R->Error;
      else if (R->Info.State != svc::JobState::Completed)
        Err = std::string("job ended ") + svc::jobStateName(R->Info.State);
      else {
        std::lock_guard<std::mutex> Lock(Mu);
        Row.TotalInstructions += R->Info.Outcome.Behaviour.Instructions;
        return;
      }
      std::lock_guard<std::mutex> Lock(Mu);
      if (FirstError.empty())
        FirstError = "client " + std::to_string(I) + ": " + Err;
    });
  for (std::thread &T : Clients)
    T.join();
  auto T1 = std::chrono::steady_clock::now();
  Teardown();
  if (!FirstError.empty())
    return Error(FirstError);
  Row.WallNs = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(T1 - T0).count());
  return Row;
}

} // namespace

int main(int Argc, char **Argv) {
  unsigned Jobs = 16;
  std::vector<unsigned> WorkerCounts = {1, 2, 4};
  std::vector<unsigned> ShardCounts = {1, 2, 4};
  unsigned ShardWorkers = 1;
  std::string OutFile = "BENCH_svc.json";
  double AssertScaling = 0;
  double AssertShardScaling = 0;

  auto ParseList = [](const char *V, std::vector<unsigned> &Out) {
    Out.clear();
    std::string S = V;
    size_t At = 0;
    while (At < S.size()) {
      size_t Comma = S.find(',', At);
      if (Comma == std::string::npos)
        Comma = S.size();
      Out.push_back(std::max(
          1u, static_cast<unsigned>(std::stoul(S.substr(At, Comma - At)))));
      At = Comma + 1;
    }
    return !Out.empty();
  };

  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    auto Value = [&](const char *Prefix) -> const char * {
      size_t Len = std::strlen(Prefix);
      return Arg.compare(0, Len, Prefix) == 0 ? Arg.c_str() + Len : nullptr;
    };
    try {
      if (const char *V = Value("--jobs="))
        Jobs = std::max(1u, static_cast<unsigned>(std::stoul(V)));
      else if (const char *V = Value("--workers=")) {
        if (!ParseList(V, WorkerCounts))
          return usage(Argv[0]);
      } else if (const char *V = Value("--shards=")) {
        if (!ParseList(V, ShardCounts))
          return usage(Argv[0]);
      } else if (const char *V = Value("--shard-workers="))
        ShardWorkers = std::max(1u, static_cast<unsigned>(std::stoul(V)));
      else if (const char *V = Value("--out="))
        OutFile = V;
      else if (const char *V = Value("--assert-scaling="))
        AssertScaling = std::stod(V);
      else if (const char *V = Value("--assert-shard-scaling="))
        AssertShardScaling = std::stod(V);
      else
        return usage(Argv[0]);
    } catch (...) {
      return usage(Argv[0]);
    }
  }

  svc::JobSpec Spec;
  Spec.Source = stack::wcSource();
  Spec.Level = stack::Level::Isa;
  Spec.CommandLine = {"wc"};
  Spec.StdinData = stack::randomLines(200, 1);
  Spec.MaxSteps = 100'000'000;

  unsigned Cpus = std::thread::hardware_concurrency();
  std::vector<Cell> Pool, Cluster;
  for (unsigned W : WorkerCounts)
    Pool.emplace_back(W);
  for (unsigned S : ShardCounts)
    Cluster.emplace_back(S);

  // Runs every cell of one sweep Reps times through \p Run, then
  // summarizes each cell.
  auto Sweep = [Jobs](std::vector<Cell> &Cells, const char *Unit,
                      auto Run) {
    for (unsigned Rep = 0; Rep != Reps; ++Rep)
      for (size_t N = 0; N != Cells.size(); ++N) {
        Cell &C = Cells[Rep % 2 ? Cells.size() - 1 - N : N];
        Result<Sample> R = Run(C.Units);
        if (!R) {
          std::fprintf(stderr, "bench_svc: %u %s: %s\n", C.Units, Unit,
                       R.error().str().c_str());
          return false;
        }
        std::fprintf(stderr,
                     "bench_svc: run %u  %2u %-7s  %3u jobs  %10llu instr  "
                     "%11llu ns\n",
                     Rep + 1, C.Units, Unit, Jobs,
                     (unsigned long long)R->TotalInstructions,
                     (unsigned long long)R->WallNs);
        C.Samples.push_back(*R);
      }
    for (Cell &C : Cells) {
      C.summarize(Jobs);
      std::fprintf(stderr,
                   "bench_svc: %2u %-7s  median %7.1f jobs/s  MAD %5.1f\n",
                   C.Units, Unit, C.JobsPerSec.Median, C.JobsPerSec.Mad);
    }
    return true;
  };
  // The pool sweep, then the dispatcher sweep: aggregate throughput
  // through the cluster front door across shard counts.
  if (!Sweep(Pool, "workers",
             [&](unsigned W) { return runConfig(W, Jobs, Spec); }) ||
      !Sweep(Cluster, "shards", [&](unsigned S) {
        return runCluster(S, ShardWorkers, Jobs, Spec);
      }))
    return 1;

  const Cell *OneWorker, *Largest, *OneShard, *LargestCluster;
  double Scaling = scalingOf(Pool, OneWorker, Largest);
  double ShardScaling = scalingOf(Cluster, OneShard, LargestCluster);
  if (Scaling > 0)
    std::fprintf(stderr, "bench_svc: scaling %uw/1w = %.2fx (%u cpus)\n",
                 Largest->Units, Scaling, Cpus);
  if (ShardScaling > 0)
    std::fprintf(stderr, "bench_svc: scaling %us/1s = %.2fx (%u cpus)\n",
                 LargestCluster->Units, ShardScaling, Cpus);

  if (!OutFile.empty()) {
    std::ofstream F(OutFile, std::ios::binary);
    if (!F) {
      std::fprintf(stderr, "bench_svc: cannot write '%s'\n", OutFile.c_str());
      return 1;
    }
    // The per-cell fields after the cell's own key: the batch, its
    // (deterministic) instruction total, and each metric's spread.
    auto Fields = [&F, Jobs](const Cell &C) {
      auto Put = [&F](const char *Name, Spread S) {
        F << ", \"" << Name << "_median\": " << S.Median << ", \"" << Name
          << "_mad\": " << S.Mad;
      };
      F << ", \"jobs\": " << Jobs << ", \"total_instructions\": "
        << C.Samples.front().TotalInstructions << ", \"runs\": "
        << C.Samples.size();
      F << std::fixed << std::setprecision(0);
      Put("wall_ns", C.WallNs);
      Put("instr_per_sec", C.InstrPerSec);
      F << std::setprecision(2);
      Put("jobs_per_sec", C.JobsPerSec);
      F << std::defaultfloat << std::setprecision(6) << "}";
    };
    F << "{\n";
    F << "  \"schema\": \"bench-svc-v3\",\n";
    F << "  \"workload\": \"wc-200\",\n";
    F << "  \"level\": \"isa\",\n";
    F << "  \"jobs\": " << Jobs << ",\n";
    F << "  \"cpus\": " << Cpus << ",\n";
    F << "  \"rows\": [\n";
    for (size_t I = 0; I != Pool.size(); ++I) {
      F << "    {\"workers\": " << Pool[I].Units;
      Fields(Pool[I]);
      F << (I + 1 == Pool.size() ? "\n" : ",\n");
    }
    F << "  ],\n";
    F << "  \"scaling_largest_over_1w\": " << Scaling << ",\n";
    F << "  \"shard_workers\": " << ShardWorkers << ",\n";
    F << "  \"dispatcher_rows\": [\n";
    for (size_t I = 0; I != Cluster.size(); ++I) {
      F << "    {\"shards\": " << Cluster[I].Units
        << ", \"workers_per_shard\": " << ShardWorkers;
      Fields(Cluster[I]);
      F << (I + 1 == Cluster.size() ? "\n" : ",\n");
    }
    F << "  ],\n";
    F << "  \"shard_scaling_largest_over_1s\": " << ShardScaling << "\n";
    F << "}\n";
    std::fprintf(stderr, "bench_svc: wrote %zu+%zu rows to %s\n", Pool.size(),
                 Cluster.size(), OutFile.c_str());
  }

  if (AssertScaling > 0) {
    if (!Largest || !OneWorker || OneWorker == Largest) {
      std::fprintf(stderr,
                   "bench_svc: --assert-scaling needs both a 1-worker and a "
                   "larger config\n");
      return 2;
    }
    if (Cpus < Largest->Units) {
      std::fprintf(stderr,
                   "bench_svc: skipping scaling assertion: %u workers on %u "
                   "hardware threads cannot scale\n",
                   Largest->Units, Cpus);
      return 0;
    }
    if (Scaling < AssertScaling) {
      std::fprintf(stderr,
                   "bench_svc: FAIL: scaling %.2fx below the required "
                   "%.2fx\n",
                   Scaling, AssertScaling);
      return 3;
    }
    std::fprintf(stderr, "bench_svc: scaling %.2fx meets the required %.2fx\n",
                 Scaling, AssertScaling);
  }

  if (AssertShardScaling > 0) {
    if (!LargestCluster || !OneShard || OneShard == LargestCluster) {
      std::fprintf(stderr,
                   "bench_svc: --assert-shard-scaling needs both a 1-shard "
                   "and a larger config\n");
      return 2;
    }
    if (Cpus < LargestCluster->Units * ShardWorkers) {
      std::fprintf(stderr,
                   "bench_svc: skipping shard-scaling assertion: %u shards x "
                   "%u workers on %u hardware threads cannot scale\n",
                   LargestCluster->Units, ShardWorkers, Cpus);
      return 0;
    }
    if (ShardScaling < AssertShardScaling) {
      std::fprintf(stderr,
                   "bench_svc: FAIL: shard scaling %.2fx below the required "
                   "%.2fx\n",
                   ShardScaling, AssertShardScaling);
      return 3;
    }
    std::fprintf(stderr,
                 "bench_svc: shard scaling %.2fx meets the required %.2fx\n",
                 ShardScaling, AssertShardScaling);
  }
  return 0;
}
