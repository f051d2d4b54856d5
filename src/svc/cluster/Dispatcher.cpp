//===- svc/cluster/Dispatcher.cpp - Shard router ------------------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "svc/cluster/Dispatcher.h"

#include "stack/PrepareCache.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace silver;
using namespace silver::svc;
using namespace silver::svc::cluster;

Dispatcher::Dispatcher(DispatcherOptions OptsIn) : Opts(std::move(OptsIn)) {
  Shards.reserve(Opts.ShardSockets.size());
  for (const std::string &Socket : Opts.ShardSockets) {
    auto S = std::make_unique<Shard>();
    S->Socket = Socket;
    Shards.push_back(std::move(S));
  }
}

//===----------------------------------------------------------------------===//
// Health
//===----------------------------------------------------------------------===//

bool Dispatcher::shardHealthy(size_t I) const {
  return I < Shards.size() &&
         Shards[I]->Healthy.load(std::memory_order_acquire);
}

size_t Dispatcher::healthyCount() const {
  size_t N = 0;
  for (const auto &S : Shards)
    N += S->Healthy.load(std::memory_order_acquire) ? 1 : 0;
  return N;
}

void Dispatcher::markHealthy(size_t I) {
  if (I < Shards.size())
    Shards[I]->Healthy.store(true, std::memory_order_release);
}

void Dispatcher::markDown(size_t I) {
  if (I >= Shards.size())
    return;
  bool WasHealthy = Shards[I]->Healthy.exchange(false);
  if (WasHealthy && Opts.OnShardDown)
    Opts.OnShardDown(I);
}

size_t Dispatcher::checkHealth() {
  size_t Up = 0;
  for (size_t I = 0; I != Shards.size(); ++I) {
    Client C;
    Request R;
    R.Kind = RequestKind::Stats;
    bool Ok = bool(C.connectUnix(Shards[I]->Socket)) && bool(C.roundTrip(R));
    if (Ok) {
      Shards[I]->Healthy.store(true, std::memory_order_release);
      ++Up;
    } else {
      markDown(I);
    }
  }
  return Up;
}

//===----------------------------------------------------------------------===//
// Routing
//===----------------------------------------------------------------------===//

static uint64_t fnv1a64(const std::string &S, uint64_t Seed) {
  uint64_t H = 1469598103934665603ull ^ Seed;
  for (char C : S) {
    H ^= static_cast<uint8_t>(C);
    H *= 1099511628211ull;
  }
  return H;
}

/// Rendezvous weight of shard \p I for routing key \p Key: the shard
/// with the highest weight owns the key, and removing a shard only
/// remaps the keys that lived on it.
static uint64_t weightOf(const std::string &Key, size_t I) {
  return fnv1a64(Key, 0x9e3779b97f4a7c15ull * (I + 1));
}

static std::string routingKey(const JobSpec &Spec) {
  stack::RunSpec Run;
  Run.Source = Spec.Source;
  Run.Exec.Backend = Spec.Backend;
  Run.Exec.Hdl = Spec.Hdl;
  return stack::PrepareCache::keyOf(Run);
}

std::vector<size_t> Dispatcher::rankShards(const JobSpec &Spec) const {
  std::string Key = routingKey(Spec);
  std::vector<size_t> Order;
  for (size_t I = 0; I != Shards.size(); ++I)
    if (Shards[I]->Healthy.load(std::memory_order_acquire))
      Order.push_back(I);
  // Stable: equal weights keep the lower shard index first.
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return weightOf(Key, A) > weightOf(Key, B);
  });
  return Order;
}

std::optional<size_t> Dispatcher::routeOf(const JobSpec &Spec) const {
  std::vector<size_t> Order = rankShards(Spec);
  if (Order.empty())
    return std::nullopt;
  return Order.front();
}

/// The error response for a request that shard \p I owns: \p Why is the
/// transport error, or empty when the shard was already marked down.
static Response shardError(size_t I, const std::string &Why) {
  Response Resp;
  Resp.Ok = false;
  Resp.Error = "shard " + std::to_string(I) +
               (Why.empty() ? " is down; retry after it recovers" : ": " + Why);
  return Resp;
}

Result<Response> Dispatcher::forward(size_t I, const Request &R) {
  Client C;
  if (Result<void> Conn = C.connectUnix(Shards[I]->Socket); !Conn) {
    Shards[I]->Errors.fetch_add(1, std::memory_order_relaxed);
    markDown(I);
    return Conn.error();
  }
  Result<Response> Resp = C.roundTrip(R);
  if (!Resp) {
    Shards[I]->Errors.fetch_add(1, std::memory_order_relaxed);
    markDown(I);
  }
  return Resp;
}

//===----------------------------------------------------------------------===//
// Request handling
//===----------------------------------------------------------------------===//

Response Dispatcher::handle(const Request &R) {
  Response Resp;
  switch (R.Kind) {
  case RequestKind::Submit: {
    // The owner first, then failover candidates (they lose the hot
    // cache, not the job).
    for (size_t I : rankShards(R.Job)) {
      Result<Response> Fwd = forward(I, R);
      if (!Fwd)
        continue; // shard died under us: marked down, try the next
      Shards[I]->Routed.fetch_add(1, std::memory_order_relaxed);
      Resp = Fwd.take();
      if (Resp.Info.Id)
        Resp.Info.Id = toGlobalId(Resp.Info.Id, I);
      return Resp;
    }
    SubmitsRejected.fetch_add(1, std::memory_order_relaxed);
    Resp.Ok = false;
    Resp.Error = "no healthy shard available";
    Resp.Info.State = JobState::Rejected;
    Resp.Info.Outcome.Error = Resp.Error;
    return Resp;
  }
  case RequestKind::Status:
  case RequestKind::Resume:
  case RequestKind::Cancel: {
    size_t I = shardOfId(R.JobId);
    if (!shardHealthy(I))
      return shardError(I, "");
    Request Local = R;
    Local.JobId = toLocalId(R.JobId);
    Result<Response> Fwd = forward(I, Local);
    if (!Fwd)
      return shardError(I, Fwd.error().str());
    Resp = Fwd.take();
    if (Resp.Info.Id)
      Resp.Info.Id = toGlobalId(Resp.Info.Id, I);
    return Resp;
  }
  case RequestKind::Stats: {
    Resp.Ok = true;
    Resp.StatsJson = mergedStatsJson(/*Drain=*/false);
    return Resp;
  }
  case RequestKind::Drain: {
    Resp.Ok = true;
    Resp.StatsJson = mergedStatsJson(/*Drain=*/true);
    return Resp;
  }
  case RequestKind::Stream:
    Resp.Ok = false;
    Resp.Error = "stream requests are handled per-connection";
    return Resp;
  }
  Resp.Ok = false;
  Resp.Error = "unhandled request kind";
  return Resp;
}

Result<void> Dispatcher::handleStream(const Request &R, const FrameSink &Send,
                                      const std::function<bool()> &Stopping) {
  (void)Stopping; // shard-side streams always terminate (parked or
                  // terminal jobs end them), so the relay is bounded
  size_t I = shardOfId(R.JobId);
  auto Fail = [&](const std::string &Why) {
    Response Final = shardError(I, Why);
    Final.StreamOffset = R.StreamOffset;
    return Send(Final);
  };
  if (!shardHealthy(I))
    return Fail("");
  Client C;
  if (Result<void> Conn = C.connectUnix(Shards[I]->Socket); !Conn) {
    Shards[I]->Errors.fetch_add(1, std::memory_order_relaxed);
    markDown(I);
    return Fail(Conn.error().str());
  }
  // Relay shard frames as they arrive.  If our client dies mid-stream
  // we keep draining the shard (the remainder is bounded by the job's
  // output) and report the sink error afterwards, dropping the
  // connection.
  Result<void> SinkState = Result<void>();
  Result<Response> End =
      C.stream(toLocalId(R.JobId), R.StreamOffset,
               [&](uint64_t Offset, const std::string &Data) {
                 if (!SinkState)
                   return;
                 Response Frame;
                 Frame.Ok = true;
                 Frame.Frame = DataFrame;
                 Frame.StreamOffset = Offset;
                 Frame.StreamData = Data;
                 SinkState = Send(Frame);
                 if (SinkState)
                   StreamRelayFrames.fetch_add(1, std::memory_order_relaxed);
               });
  if (!SinkState)
    return SinkState;
  if (!End) {
    Shards[I]->Errors.fetch_add(1, std::memory_order_relaxed);
    markDown(I);
    return Fail(End.error().str());
  }
  Response Final = End.take();
  if (Final.Info.Id)
    Final.Info.Id = toGlobalId(Final.Info.Id, I);
  return Send(Final);
}

//===----------------------------------------------------------------------===//
// Stats
//===----------------------------------------------------------------------===//

std::string Dispatcher::mergedStatsJson(bool Drain) {
  if (Drain)
    DrainFlag.store(true, std::memory_order_release);
  std::string Out = "{";
  Out += "\"schema\":\"silver-dispatch-stats-v1\"";
  Out += ",\"shards\":" + std::to_string(Shards.size());

  std::string PerShard;
  size_t Healthy = 0;
  for (size_t I = 0; I != Shards.size(); ++I) {
    if (I)
      PerShard += ",";
    Request Req;
    Req.Kind = Drain ? RequestKind::Drain : RequestKind::Stats;
    Result<Response> Fwd = shardHealthy(I)
                               ? forward(I, Req)
                               : Result<Response>(Error("shard is down"));
    bool Up = bool(Fwd) && Fwd->Ok;
    Healthy += Up ? 1 : 0;
    PerShard += "{\"socket\":" + jsonQuote(Shards[I]->Socket);
    PerShard += std::string(",\"healthy\":") + (Up ? "true" : "false");
    PerShard += ",\"routed\":" +
                std::to_string(Shards[I]->Routed.load(std::memory_order_relaxed));
    PerShard += ",\"errors\":" +
                std::to_string(Shards[I]->Errors.load(std::memory_order_relaxed));
    PerShard += ",\"stats\":";
    PerShard += Up && !Fwd->StatsJson.empty() ? Fwd->StatsJson : "null";
    PerShard += "}";
  }
  Out += ",\"healthy\":" + std::to_string(Healthy);
  Out += ",\"dispatch\":{";
  Out += "\"stream_relay_frames\":" +
         std::to_string(StreamRelayFrames.load(std::memory_order_relaxed));
  Out += ",\"submits_rejected\":" +
         std::to_string(SubmitsRejected.load(std::memory_order_relaxed));
  Out += "}";
  Out += ",\"per_shard\":[" + PerShard + "]";
  Out += "}";
  return Out;
}
