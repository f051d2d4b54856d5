//===- svc/cluster/Dispatcher.h - Shard router ------------------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cluster front door of `silverd --dispatch=N`: a RequestHandler
/// that owns the client-facing socket and routes every request to one of
/// N single-shard silverd workers over their private Unix sockets.
///
///   - Submissions route by rendezvous (highest-random-weight) hashing
///     of the *prepare key* (stack::PrepareCache::keyOf) over the
///     currently-healthy shards: every submission of the same program
///     lands on the shard whose prepare cache is already hot, and a
///     shard loss only remaps the keys that lived on the dead shard.
///   - Job ids are namespaced: global = local * NumShards + shard, so
///     Status/Resume/Cancel/Stream route to the owning shard with no
///     routing table to keep consistent (and no state to lose).
///   - A shard that stops answering is marked unhealthy, the host's
///     OnShardDown hook fires (typically: respawn the worker process),
///     and requests that need that shard are *rejected with a status*
///     rather than hung.  Submissions fail over to the next shard in
///     rendezvous order.
///   - Stats responses embed every healthy shard's own silverd-stats-v1
///     JSON plus dispatcher-level routing/health/stream counters
///     (schema silver-dispatch-stats-v1).
///   - Drain fans out to every shard, then the transport stops the
///     dispatcher itself.
///
/// Connections to shards are per-request (Unix sockets; connect is
/// cheap) which keeps the dispatcher stateless across requests — the
/// durable state lives in the shards' journals.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_SVC_CLUSTER_DISPATCHER_H
#define SILVER_SVC_CLUSTER_DISPATCHER_H

#include "svc/Client.h"
#include "svc/Server.h"

#include <atomic>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace silver {
namespace svc {
namespace cluster {

struct DispatcherOptions {
  /// One Unix socket path per shard worker, shard index = vector index.
  std::vector<std::string> ShardSockets;
  /// Fired (outside any lock) each time a shard transitions
  /// healthy -> down; the host may respawn the worker and call
  /// markHealthy once it answers again.
  std::function<void(size_t)> OnShardDown;
};

class Dispatcher : public RequestHandler {
public:
  explicit Dispatcher(DispatcherOptions Opts);

  Response handle(const Request &R) override;
  Result<void> handleStream(const Request &R, const FrameSink &Send,
                            const std::function<bool()> &Stopping) override;

  size_t shardCount() const { return Shards.size(); }
  bool shardHealthy(size_t I) const;
  size_t healthyCount() const;
  /// Re-arms a shard after the host respawned it.
  void markHealthy(size_t I);
  /// Probes every shard with a Stats round trip, updating health both
  /// ways; returns how many answered.
  size_t checkHealth();

  /// True once a Drain has begun fanning out — shards dying after this
  /// are draining on purpose, not crashing (the respawn monitor checks).
  bool draining() const { return DrainFlag.load(std::memory_order_acquire); }

  /// Id namespacing (exposed for tests and the bench harness).
  uint64_t toGlobalId(uint64_t Local, size_t Shard) const {
    return Local * Shards.size() + Shard;
  }
  size_t shardOfId(uint64_t Global) const { return Global % Shards.size(); }
  uint64_t toLocalId(uint64_t Global) const { return Global / Shards.size(); }

  /// The rendezvous route for \p Spec over the currently-healthy set
  /// (exposed for tests; nullopt when no shard is healthy): the first
  /// entry of rankShards().
  std::optional<size_t> routeOf(const JobSpec &Spec) const;

  /// Merged cluster stats (schema silver-dispatch-stats-v1), embedding
  /// each answering shard's own stats JSON.  With \p Drain the
  /// per-shard probe is a Drain request — every shard finishes its
  /// in-flight work and stops — instead of a Stats request.
  std::string mergedStatsJson(bool Drain = false);

private:
  struct Shard {
    std::string Socket;
    std::atomic<bool> Healthy{true};
    std::atomic<uint64_t> Routed{0};  ///< submissions sent here
    std::atomic<uint64_t> Errors{0};  ///< round trips that failed
  };

  /// The healthy shards in rendezvous order for \p Spec: the owner
  /// first, then the failover candidates.
  std::vector<size_t> rankShards(const JobSpec &Spec) const;
  /// Marks \p I down and fires OnShardDown on a healthy->down edge.
  void markDown(size_t I);
  /// One connect + round trip against shard \p I; a transport failure
  /// marks the shard down and is returned as an error (protocol-level
  /// failures — Resp.Ok == false — are successful round trips).
  Result<Response> forward(size_t I, const Request &R);

  DispatcherOptions Opts;
  std::vector<std::unique_ptr<Shard>> Shards;
  std::atomic<uint64_t> StreamRelayFrames{0};
  std::atomic<uint64_t> SubmitsRejected{0}; ///< no healthy shard
  std::atomic<bool> DrainFlag{false};
};

} // namespace cluster
} // namespace svc
} // namespace silver

#endif // SILVER_SVC_CLUSTER_DISPATCHER_H
