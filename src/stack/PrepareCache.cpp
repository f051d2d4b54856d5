//===- stack/PrepareCache.cpp - Memoized stack::prepare ----------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "stack/PrepareCache.h"

using namespace silver;
using namespace silver::stack;

std::string PrepareCache::keyOf(const RunSpec &Spec) {
  const cml::CompileOptions &C = Spec.Compile;
  std::string Key;
  Key.reserve(Spec.Source.size() + 64);
  Key += Spec.Source;
  Key.push_back('\0');
  auto Num = [&Key](uint64_t V) {
    Key += std::to_string(V);
    Key.push_back(',');
  };
  Num(C.Opt.ConstantFold);
  Num(C.Opt.DeadLetElim);
  Num(C.Opt.Inline);
  Num(C.Opt.InlineSizeLimit);
  Num(C.IncludePrelude);
  Num(C.Layout.MemSize);
  Num(C.Layout.CmdlineCap);
  Num(C.Layout.StdinCap);
  Num(C.Layout.OutBufCap);
  Num(C.Layout.SyscallCodeCap);
  Num(C.Layout.StartupCap);
  // The backend is part of the key even though compilation ignores it:
  // the serving layer keys sessions and artifacts off this string, and
  // keeping per-backend streams distinct means a jit/interp A-B
  // comparison never aliases in the cache.
  Num(static_cast<uint64_t>(Spec.Exec.Backend));
  Num(static_cast<uint64_t>(Spec.Exec.Hdl));
  return Key;
}

Result<Prepared> PrepareCache::prepare(const RunSpec &Spec) {
  std::string Key = keyOf(Spec);

  auto Assemble = [&Spec](const Entry &E) {
    Prepared P;
    P.Program = E.Program;
    P.Image.CommandLine = Spec.CommandLine;
    P.Image.StdinData = Spec.StdinData;
    P.Image.Program = P.Program.Program;
    P.Image.Params = Spec.Compile.Layout;
    P.Snapshot = E.Snapshot;
    return P;
  };

  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Index.find(Key);
    if (It != Index.end()) {
      ++Stats.Hits;
      Lru.splice(Lru.begin(), Lru, It->second);
      return Assemble(It->second->second);
    }
    ++Stats.Misses;
  }

  // Miss: compile and snapshot outside the lock.
  Result<cml::Compiled> Compiled =
      cml::compileProgram(Spec.Source, Spec.Compile);
  if (!Compiled)
    return Compiled.error();
  Entry E{Compiled.take(), nullptr};
  E.Snapshot = snapshotFor(E.Program, Spec);

  std::lock_guard<std::mutex> Lock(Mu);
  if (Index.find(Key) == Index.end()) {
    Lru.emplace_front(Key, E);
    Index[Key] = Lru.begin();
    while (Lru.size() > Capacity) {
      Index.erase(Lru.back().first);
      Lru.pop_back();
      ++Stats.Evictions;
    }
  }
  return Assemble(E);
}

PrepareCache::CacheStats PrepareCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  CacheStats S = Stats;
  S.Entries = Lru.size();
  return S;
}

void PrepareCache::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Lru.clear();
  Index.clear();
  Stats.Entries = 0;
}
