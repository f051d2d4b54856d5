//===- tests/svc/JobQueueTest.cpp - fair priority service order ---------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
// The order: lanes, round-robin and erase.  The depth bound and the
// per-client quota are the Service's front-door decision, counted from
// this order; their cases reach it through submit() on a Service with
// no workers, so nothing leaves the order but a cancel.
//
//===----------------------------------------------------------------------===//

#include "svc/JobQueue.h"
#include "svc/Service.h"

#include "stack/Apps.h"

#include "gtest/gtest.h"

#include <vector>

using namespace silver;
using namespace silver::svc;

namespace {

std::vector<uint64_t> drain(JobQueue &Q) {
  std::vector<uint64_t> Order;
  while (std::optional<uint64_t> Got = Q.pop())
    Order.push_back(*Got);
  return Order;
}

JobSpec helloJob(const std::string &Client, uint8_t Priority) {
  JobSpec S;
  S.Source = stack::helloSource();
  S.Level = stack::Level::Isa;
  S.CommandLine = {"hello"};
  S.ClientId = Client;
  S.Priority = Priority;
  return S;
}

/// A Service whose order only a cancel drains.
ServiceOptions noWorkers(size_t Depth, double Share = 1.0) {
  ServiceOptions Opts;
  Opts.Workers = 0;
  Opts.QueueDepth = Depth;
  Opts.MaxClientShare = Share;
  return Opts;
}

TEST(JobQueue, FifoWithinOnePriority) {
  JobQueue Q;
  for (uint64_t Id = 1; Id <= 4; ++Id)
    Q.push(Id, 1);
  EXPECT_EQ(Q.size(), 4u);
  EXPECT_EQ(drain(Q), (std::vector<uint64_t>{1, 2, 3, 4}));
  EXPECT_EQ(Q.size(), 0u);
  EXPECT_FALSE(Q.pop().has_value());
}

TEST(JobQueue, UrgentLaneServedFirst) {
  JobQueue Q;
  Q.push(10, 3);
  Q.push(11, 1);
  Q.push(12, 0);
  Q.push(13, 0);
  EXPECT_EQ(drain(Q), (std::vector<uint64_t>{12, 13, 11, 10}));
}

TEST(JobQueue, OutOfRangePriorityClampsToLowestLane) {
  JobQueue Q;
  Q.push(1, 200);
  Q.push(2, NumPriorities - 1);
  // Both land in the batch lane, FIFO order preserved.
  EXPECT_EQ(drain(Q), (std::vector<uint64_t>{1, 2}));
}

TEST(JobQueue, RoundRobinInterleavesClientsWithinALane) {
  JobQueue Q;
  // Tenant a floods the lane before tenant b's single job arrives.
  for (uint64_t Id = 1; Id <= 4; ++Id)
    Q.push(Id, 1, "a");
  Q.push(10, 1, "b");
  Q.push(20, 1, "c");
  // One job per client per rotation: b and c wait at most one full
  // round behind a's head-of-line job, not behind all four.
  EXPECT_EQ(drain(Q), (std::vector<uint64_t>{1, 10, 20, 2, 3, 4}));
}

TEST(JobQueue, RoundRobinKeepsFifoWithinOneClient) {
  JobQueue Q;
  for (uint64_t Id = 1; Id <= 5; ++Id)
    Q.push(Id, 0, "only");
  // A single tenant degenerates to exactly the old FIFO.
  EXPECT_EQ(drain(Q), (std::vector<uint64_t>{1, 2, 3, 4, 5}));
}

TEST(JobQueue, PriorityStillBeatsFairness) {
  JobQueue Q;
  Q.push(1, 3, "a");
  Q.push(2, 0, "b");
  // The urgent lane is served first regardless of rotation state.
  EXPECT_EQ(drain(Q), (std::vector<uint64_t>{2, 1}));
}

TEST(JobQueue, BoundedDepthRejectsWithFull) {
  Service Svc(noWorkers(2));
  JobInfo First = Svc.submit(helloJob("", 0));
  EXPECT_EQ(First.State, JobState::Queued);
  EXPECT_EQ(Svc.submit(helloJob("", 3)).State, JobState::Queued);
  // The bound covers all lanes together.
  JobInfo Third = Svc.submit(helloJob("", 0));
  EXPECT_EQ(Third.State, JobState::Rejected);
  EXPECT_EQ(Third.Outcome.Error, "queue full");
  EXPECT_EQ(Svc.queueDepth(), 2u);
  ASSERT_TRUE(bool(Svc.cancel(First.Id)));
  EXPECT_EQ(Svc.submit(helloJob("", 0)).State, JobState::Queued);
}

TEST(JobQueue, QuotaCapsOneTenantWithoutStarvingOthers) {
  // Depth 8, share 0.25 -> each tenant may hold ceil(8 * 0.25) = 2.
  Service Svc(noWorkers(8, 0.25));
  JobInfo First = Svc.submit(helloJob("greedy", 0));
  EXPECT_EQ(First.State, JobState::Queued);
  EXPECT_EQ(Svc.submit(helloJob("greedy", 0)).State, JobState::Queued);
  JobInfo Third = Svc.submit(helloJob("greedy", 0));
  EXPECT_EQ(Third.State, JobState::Rejected);
  EXPECT_EQ(Third.Outcome.Error, "client quota exceeded");
  // Another tenant still fits: the queue is not full, just that tenant.
  EXPECT_EQ(Svc.submit(helloJob("polite", 0)).State, JobState::Queued);
  // Taking a greedy job out of the order frees its quota slot.
  ASSERT_TRUE(bool(Svc.cancel(First.Id)));
  EXPECT_EQ(Svc.submit(helloJob("greedy", 2)).State, JobState::Queued);
}

TEST(JobQueue, QuotaSpansAllLanes) {
  // The count the Service's per-client quota reads covers the tenant's
  // jobs in every priority lane.
  JobQueue Q;
  Q.push(1, 0, "t");
  Q.push(2, 3, "t");
  Q.push(3, 1, "u");
  EXPECT_EQ(Q.clientDepth("t"), 2u);
  EXPECT_EQ(Q.clientDepth("u"), 1u);
  EXPECT_EQ(Q.clientDepth("nobody"), 0u);
  Q.pop(); // job 1, lane 0
  EXPECT_EQ(Q.clientDepth("t"), 1u);

  // The cap counts the tenant's jobs across every priority lane.
  Service Svc(noWorkers(8, 0.25));
  ASSERT_EQ(Svc.submit(helloJob("t", 0)).State, JobState::Queued);
  ASSERT_EQ(Svc.submit(helloJob("t", 3)).State, JobState::Queued);
  EXPECT_EQ(Svc.submit(helloJob("t", 1)).Outcome.Error,
            "client quota exceeded");
}

TEST(JobQueue, DefaultShareDisablesQuota) {
  Service Svc(noWorkers(4));
  for (unsigned I = 0; I != 4; ++I)
    ASSERT_EQ(Svc.submit(helloJob("one", 0)).State, JobState::Queued);
  // Full, not a quota refusal: the depth bound is the only limit at
  // share 1.0.
  EXPECT_EQ(Svc.submit(helloJob("one", 0)).Outcome.Error, "queue full");
}

TEST(JobQueue, EraseTakesAJobOutOfItsTurn) {
  JobQueue Q;
  Q.push(1, 1, "a");
  Q.push(2, 1, "a");
  Q.push(10, 1, "b");
  Q.push(20, 2, "c");
  EXPECT_TRUE(Q.erase(2));
  // b's only job: its bucket leaves the rotation with it.
  EXPECT_TRUE(Q.erase(10));
  EXPECT_FALSE(Q.erase(10)) << "already gone";
  EXPECT_FALSE(Q.erase(99)) << "never queued";
  EXPECT_EQ(Q.size(), 2u);
  EXPECT_EQ(Q.clientDepth("a"), 1u);
  EXPECT_EQ(Q.clientDepth("b"), 0u);
  EXPECT_EQ(drain(Q), (std::vector<uint64_t>{1, 20}));
  // An emptied bucket is rebuilt on the next push.
  Q.push(11, 1, "b");
  EXPECT_EQ(drain(Q), (std::vector<uint64_t>{11}));
}

} // namespace
