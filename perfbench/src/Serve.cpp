//===- perfbench/src/Serve.cpp - The silverd user --------------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
// An in-process svc::Service (2 workers) behind svc::Server on a Unix
// socket, driven by a closed loop of 4 client threads.  Each job opens a
// fresh svc::Client connection, as the silver-client CLI does, and
// submits with a wait.  Every deck of 16 jobs holds the six apps with
// small inputs, interp and jit (12), two fresh source variants (prepare
// cache misses) and two long sort/wc jobs submitted with a slice grant
// and resumed until they complete.  Latency is client-observed, from
// before connect to the completed response.
//
//===----------------------------------------------------------------------===//

#include "Common.h"

#include "stack/Apps.h"
#include "svc/Client.h"
#include "svc/Server.h"
#include "svc/Service.h"

#include <atomic>
#include <filesystem>
#include <mutex>
#include <thread>

using namespace bench;

namespace {

constexpr unsigned Workers = 2;
constexpr unsigned Clients = 4;
constexpr uint64_t LongSlice = 4'000'000;
constexpr uint64_t WaitMs = 120'000;

struct Job {
  App A;
  svc::JobSpec Spec;
  std::string Expected;
  std::string Kind;
};

Job makeJob(App A, std::string Source, std::string Stdin, const Cell &C,
            std::string Kind) {
  Job J;
  J.A = A;
  J.Spec.Source = std::move(Source);
  J.Spec.Level = stack::Level::Isa;
  J.Spec.CommandLine = appCommandLine(A);
  J.Spec.StdinData = std::move(Stdin);
  J.Spec.Backend = C.Backend;
  J.Expected = appSpec(A, J.Spec.StdinData);
  J.Kind = std::move(Kind);
  return J;
}

/// A client's next deck of 16 jobs; \p Variant numbers fresh variants.
std::vector<Job> makeDeck(Rng &R, std::atomic<uint64_t> &Variant) {
  std::vector<Job> D;
  for (App A : AllApps)
    for (const Cell &C : {IsaCell, JitCell})
      D.push_back(makeJob(A, appSource(A), smallInput(A, R), C,
                          std::string(appName(A)) + "/" + cellName(C)));
  for (unsigned I = 0; I != 2; ++I) {
    App A = AllApps[R.below(6)];
    const Cell &C = I ? JitCell : IsaCell;
    D.push_back(makeJob(A, sourceVariant(appSource(A), ++Variant),
                        smallInput(A, R), C, "variant"));
  }
  Job Sort = makeJob(App::Sort, appSource(App::Sort),
                     stack::randomLines(360 + R.below(81), R.next32()),
                     IsaCell, "long-sort");
  Job Wc = makeJob(App::Wc, appSource(App::Wc),
                   stack::randomLines(1100 + R.below(201), R.next32()),
                   JitCell, "long-wc");
  for (Job *L : {&Sort, &Wc}) {
    L->Spec.SliceInstructions = LongSlice;
    D.push_back(std::move(*L));
  }
  for (size_t I = D.size(); I > 1; --I)
    std::swap(D[I - 1], D[R.below(static_cast<uint32_t>(I))]);
  return D;
}

/// Submits one job on a fresh connection and resumes it until it
/// completes.  Returns "" or what went wrong.
std::string runJob(const std::string &Socket, const Job &J, Tracer *T,
                   uint64_t JobId, uint64_t &Instructions) {
  svc::Client C;
  {
    Span S(T, "svc.connect", JobId);
    if (Result<void> R = C.connectUnix(Socket); !R)
      return "connect: " + R.error().str();
  }
  Result<svc::Response> Resp = [&] {
    Span S(T, "svc.submit", JobId);
    return C.submit(J.Spec, WaitMs);
  }();
  while (Resp && Resp->Ok && Resp->Info.State == svc::JobState::Paused) {
    Span S(T, "svc.resume", JobId);
    Resp = C.resume(Resp->Info.Id, 0, WaitMs);
  }
  if (!Resp)
    return "transport: " + Resp.error().str();
  if (!Resp->Ok)
    return "rejected: " + Resp->Error;
  const svc::JobInfo &I = Resp->Info;
  if (I.State != svc::JobState::Completed)
    return std::string("job ended ") + svc::jobStateName(I.State) +
           (I.Outcome.Error.empty() ? "" : " (" + I.Outcome.Error + ")");
  Instructions = I.Outcome.Behaviour.Instructions;
  return checkOutcome(stack::RunStatus::Completed, I.Outcome.Behaviour,
                      J.Expected);
}

/// The number after \p Key in the single-line stats JSON (0 if absent).
double statField(const std::string &Json, const std::string &Key) {
  size_t At = Json.find("\"" + Key + "\":");
  return At == std::string::npos
             ? 0
             : std::strtod(Json.c_str() + At + Key.size() + 3, nullptr);
}

struct Daemon {
  std::unique_ptr<svc::Service> Svc;
  std::unique_ptr<svc::Server> Srv;
};

} // namespace

void bench::runServe(const Options &O, Report &R) {
  std::string Socket = O.ScratchDir + "/silverd.sock";
  Daemon D;
  stack::PrepareCache::CacheStats Warm;
  // Set-up: start the daemon and warm its prepare cache with every
  // (app, backend) pair, as a long-running silverd would be.
  double SetupS = medianSetupSeconds(5, [&] {
    D.Srv.reset(); // the server goes before the service it serves
    D.Svc.reset();
    svc::ServiceOptions SO;
    SO.Workers = Workers;
    D.Svc = std::make_unique<svc::Service>(SO);
    svc::ServerOptions SrvO;
    SrvO.SocketPath = Socket;
    D.Srv = std::make_unique<svc::Server>(*D.Svc, SrvO);
    if (Result<void> S = D.Srv->start(); !S) {
      R.mismatch("set-up: server: " + S.error().str());
      return;
    }
    for (App A : AllApps)
      for (const Cell &C : {IsaCell, JitCell}) {
        Job J = makeJob(A, appSource(A), canonicalInput(A), C, "warm");
        uint64_t Instr = 0;
        std::string Bad = runJob(Socket, J, nullptr, 0, Instr);
        if (!Bad.empty())
          R.mismatch(std::string("set-up: warm ") + appName(A) + ": " + Bad);
      }
    Warm = D.Svc->prepareCacheStats();
  });
  R.EndToEnd.set("setup_s", SetupS, "s");
  if (!R.correct() || !D.Srv)
    return;

  std::unique_ptr<Tracer> T;
  if (O.Trace)
    T = std::make_unique<Tracer>();
  std::mutex Mu;
  std::vector<OpSample> Ops;
  uint64_t TotalInstr = 0;
  std::atomic<uint64_t> Variant{O.Seed << 24};
  std::atomic<uint64_t> NextJob{1};
  std::atomic<bool> Done{false};

  // Queue-depth sampler (traced run only).
  double DepthSum = 0;
  uint64_t DepthSamples = 0;
  std::thread Sampler;
  if (T)
    Sampler = std::thread([&] {
      while (!Done.load()) {
        DepthSum += static_cast<double>(D.Svc->queueDepth());
        ++DepthSamples;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });

  uint64_t Start = nowNs();
  uint64_t Deadline = Start + static_cast<uint64_t>(O.Seconds * 1e9);
  std::vector<std::thread> Threads;
  for (unsigned Cl = 0; Cl != Clients; ++Cl)
    Threads.emplace_back([&, Cl] {
      Rng Rand(O.Seed * 0x9e3779b97f4a7c15ull + 101 + Cl);
      std::vector<Job> Deck;
      size_t Next = 0;
      for (uint64_t N = 0; nowNs() < Deadline; ++N) {
        if (Next == Deck.size()) {
          Deck = makeDeck(Rand, Variant);
          Next = 0;
        }
        const Job &J = Deck[Next++];
        bool Traced = T && N % 2 == 1;
        Tracer *Tr = Traced ? T.get() : nullptr;
        uint64_t Id = NextJob.fetch_add(1);
        uint64_t Instr = 0;
        uint64_t T0 = nowNs();
        std::string Bad;
        {
          Span JobSpan(Tr, "job", Id);
          Bad = runJob(Socket, J, Tr, Id, Instr);
        }
        uint64_t T1 = nowNs();
        std::lock_guard<std::mutex> Lock(Mu);
        ++R.Attempted;
        if (!Bad.empty()) {
          R.failOp(J.Kind + ": " + Bad);
          continue;
        }
        Ops.push_back({J.Kind, Traced, T1 - T0});
        TotalInstr += Instr;
      }
    });
  for (std::thread &Th : Threads)
    Th.join();
  uint64_t WallNs = nowNs() - Start;
  Done = true;
  if (Sampler.joinable())
    Sampler.join();

  latencyMetrics(R, Ops, WallNs);
  R.EndToEnd.set("minstr_per_s",
                 static_cast<double>(TotalInstr) * 1e3 /
                     static_cast<double>(WallNs),
                 "Minstr/s");

  std::string Stats = D.Svc->statsJson();
  stack::PrepareCache::CacheStats CS = D.Svc->prepareCacheStats();
  uint64_t Hits = CS.Hits - Warm.Hits, Misses = CS.Misses - Warm.Misses;
  double ThreadsEnd = procStatus("Threads");
  double VmMb = procStatus("VmSize") / 1024.0;
  D.Srv->stop();

  if (T) {
    R.Layer.set("stack.prepare_cache.hits", static_cast<double>(Hits),
                "count");
    R.Layer.set("stack.prepare_cache.misses", static_cast<double>(Misses),
                "count");
    R.Layer.set("stack.prepare_cache.hit_ratio",
                Hits + Misses ? static_cast<double>(Hits) / (Hits + Misses)
                              : 0,
                "ratio");
    R.Layer.set("svc.queue_depth_mean",
                DepthSamples ? DepthSum / DepthSamples : 0, "jobs");
    R.Layer.set("svc.service_p50_ms", statField(Stats, "p50_ns") * 1e-6,
                "ms");
    R.Layer.set("svc.service_p99_ms", statField(Stats, "p99_ns") * 1e-6,
                "ms");
    R.Layer.set("svc.rejected", statField(Stats, "rejected"), "count");
    R.Layer.set("svc.failed", statField(Stats, "failed"), "count");
    R.Layer.set("svc.threads_end", ThreadsEnd, "threads");
    R.Layer.set("svc.vmsize_mb_end", VmMb, "MB");
    overheadMetric(R, Ops);
    spanMetrics(R, *T, O);
  }
  std::error_code Ec;
  std::filesystem::remove(Socket, Ec);
}
