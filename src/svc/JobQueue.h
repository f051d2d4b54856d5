//===- svc/JobQueue.h - Fair priority service order -------------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The order in which svc::Service's workers take queued jobs.  It keeps
/// order only: it is not synchronized (Service::Mu guards it with the
/// job table), and it admits and refuses nothing — admission
/// is the Service's front-door decision, counted from this order.
///
/// NumPriorities lanes; pop() serves the lowest-numbered non-empty lane
/// (priority 0 first).  Within a lane, jobs are grouped by ClientId and
/// the lane serves one job per client per turn (FIFO within a client),
/// so a tenant that enqueues 50 jobs ahead of a tenant that enqueues 1
/// no longer delays that 1 by 50 service times — at equal priority,
/// every waiting client is at most one full rotation from the head.  For
/// a single client it degenerates to plain FIFO.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_SVC_JOBQUEUE_H
#define SILVER_SVC_JOBQUEUE_H

#include "svc/Job.h"

#include <array>
#include <deque>
#include <list>
#include <optional>
#include <string>
#include <unordered_map>

namespace silver {
namespace svc {

class JobQueue {
public:
  /// Appends \p JobId to tenant \p Client's FIFO on lane \p Priority
  /// (clamped to NumPriorities-1); empty is the anonymous tenant.
  void push(uint64_t JobId, uint8_t Priority,
            const std::string &Client = std::string());

  /// Takes the next job in service order; nullopt when empty.
  std::optional<uint64_t> pop();

  /// Takes \p JobId out of the order wherever it waits; false when it is
  /// not there.
  bool erase(uint64_t JobId);

  size_t size() const { return Size; }
  /// Jobs waiting under \p Client, across every lane.
  size_t clientDepth(const std::string &Client) const;

private:
  /// One tenant's FIFO within a lane; lanes serve their buckets
  /// round-robin (front bucket yields one job, then rotates to the
  /// back).
  struct Bucket {
    std::string Client;
    std::deque<uint64_t> Items;
  };
  struct Lane {
    std::list<Bucket> Buckets; ///< round-robin order, front is next
    std::unordered_map<std::string, std::list<Bucket>::iterator> Index;

    /// Drops bucket \p It, which has just emptied.
    void dropBucket(std::list<Bucket>::iterator It) {
      Index.erase(It->Client);
      Buckets.erase(It);
    }
  };

  std::array<Lane, NumPriorities> Lanes;
  size_t Size = 0;
};

} // namespace svc
} // namespace silver

#endif // SILVER_SVC_JOBQUEUE_H
