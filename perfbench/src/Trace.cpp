//===- perfbench/src/Trace.cpp - In-memory span recorder --------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <atomic>
#include <cstdio>
#include <chrono>
#include <fstream>

using namespace bench;

namespace {

uint64_t steadyNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Spans open on this thread, innermost last (the parent of the next).
thread_local std::vector<uint32_t> OpenSpans;

uint32_t threadIndex() {
  static std::atomic<uint32_t> Next{1};
  thread_local uint32_t Mine = Next.fetch_add(1);
  return Mine;
}

std::string layerOf(const char *Name) {
  std::string S = Name;
  return S.substr(0, S.find('.'));
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out.push_back('\\');
    Out.push_back(C);
  }
  return Out;
}

} // namespace

uint32_t Tracer::open(const char *Name, uint64_t JobId) {
  uint32_t Parent = OpenSpans.empty() ? 0 : OpenSpans.back();
  uint32_t Id;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Recs.push_back({Name, steadyNs(), 0, Parent, threadIndex(), JobId});
    Id = static_cast<uint32_t>(Recs.size());
  }
  OpenSpans.push_back(Id);
  return Id;
}

void Tracer::close(uint32_t Id) {
  uint64_t End = steadyNs();
  if (!OpenSpans.empty() && OpenSpans.back() == Id)
    OpenSpans.pop_back();
  std::lock_guard<std::mutex> Lock(Mu);
  Recs[Id - 1].EndNs = End;
}

std::map<std::string, Tracer::Totals> Tracer::byName() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::map<std::string, Totals> Out;
  for (const Rec &R : Recs) {
    Totals &T = Out[R.Name];
    ++T.Count;
    T.Ns += R.EndNs - R.StartNs;
  }
  return Out;
}

std::map<std::string, uint64_t> Tracer::selfNsByLayer() const {
  std::lock_guard<std::mutex> Lock(Mu);
  // Children of one parent never overlap (they ran on the parent's
  // thread, one after another), so the covered time is their sum.
  std::vector<uint64_t> ChildNs(Recs.size() + 1, 0);
  for (const Rec &R : Recs)
    if (R.Parent != 0)
      ChildNs[R.Parent] += R.EndNs - R.StartNs;
  std::map<std::string, uint64_t> Out;
  for (size_t I = 0; I != Recs.size(); ++I) {
    uint64_t Dur = Recs[I].EndNs - Recs[I].StartNs;
    uint64_t Covered = ChildNs[I + 1];
    Out[layerOf(Recs[I].Name)] += Dur > Covered ? Dur - Covered : 0;
  }
  return Out;
}

silver::Result<void> Tracer::writeChrome(const std::string &Path) const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::ofstream F(Path, std::ios::binary);
  if (!F)
    return silver::Error("cannot write span file '" + Path + "'");
  uint64_t Base = Recs.empty() ? 0 : Recs.front().StartNs;
  F << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (size_t I = 0; I != Recs.size(); ++I) {
    const Rec &R = Recs[I];
    char Buf[160];
    std::snprintf(Buf, sizeof Buf,
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f",
                  R.Tid, static_cast<double>(R.StartNs - Base) * 1e-3,
                  static_cast<double>(R.EndNs - R.StartNs) * 1e-3);
    F << "{\"name\":\"" << jsonEscape(R.Name) << "\",\"cat\":\""
      << jsonEscape(layerOf(R.Name)) << "\"," << Buf
      << ",\"args\":{\"id\":" << I + 1 << ",\"parent\":" << R.Parent
      << ",\"job\":" << R.JobId << "}}"
      << (I + 1 == Recs.size() ? "\n" : ",\n");
  }
  F << "]}\n";
  if (!F)
    return silver::Error("short write to span file '" + Path + "'");
  return {};
}
