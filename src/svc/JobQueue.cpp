//===- svc/JobQueue.cpp - Fair priority service order -------------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "svc/JobQueue.h"

#include <algorithm>

using namespace silver;
using namespace silver::svc;

void JobQueue::push(uint64_t JobId, uint8_t Priority,
                    const std::string &Client) {
  Lane &L = Lanes[std::min<unsigned>(Priority, NumPriorities - 1)];
  auto It = L.Index.find(Client);
  if (It == L.Index.end()) {
    L.Buckets.push_back(Bucket{Client, {}});
    It = L.Index.emplace(Client, std::prev(L.Buckets.end())).first;
  }
  It->second->Items.push_back(JobId);
  ++Size;
}

std::optional<uint64_t> JobQueue::pop() {
  for (Lane &L : Lanes) {
    if (L.Buckets.empty())
      continue;
    Bucket &B = L.Buckets.front();
    uint64_t Id = B.Items.front();
    B.Items.pop_front();
    // One job served: this client goes to the back of the rotation (or
    // out of it when drained), so the next pop serves the next tenant.
    if (B.Items.empty())
      L.dropBucket(L.Buckets.begin());
    else
      L.Buckets.splice(L.Buckets.end(), L.Buckets, L.Buckets.begin());
    --Size;
    return Id;
  }
  return std::nullopt;
}

bool JobQueue::erase(uint64_t JobId) {
  for (Lane &L : Lanes)
    for (auto B = L.Buckets.begin(); B != L.Buckets.end(); ++B) {
      auto It = std::find(B->Items.begin(), B->Items.end(), JobId);
      if (It == B->Items.end())
        continue;
      B->Items.erase(It);
      if (B->Items.empty())
        L.dropBucket(B);
      --Size;
      return true;
    }
  return false;
}

size_t JobQueue::clientDepth(const std::string &Client) const {
  size_t N = 0;
  for (const Lane &L : Lanes)
    if (auto It = L.Index.find(Client); It != L.Index.end())
      N += It->second->Items.size();
  return N;
}
