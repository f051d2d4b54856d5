//===- stack/PrepareCache.h - Memoized stack::prepare -----------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An LRU cache in front of stack::prepare for the serving layer
/// (svc::Service): repeated submissions of the same program skip the
/// MiniCake compilation and the boot-snapshot build entirely.  Both
/// depend only on the source text and the compile options, so those are
/// the key; the per-run image fields (command line, stdin) are rebuilt
/// on every call from the RunSpec, exactly as stack::prepare does.
///
/// Thread-safe: lookups, inserts and stats take an internal mutex, but
/// a miss compiles *outside* the lock, so one slow compilation never
/// blocks concurrent hits on other programs (two concurrent misses on
/// the same key may both compile; the second insert wins harmlessly —
/// compilation is deterministic).
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_STACK_PREPARECACHE_H
#define SILVER_STACK_PREPARECACHE_H

#include "stack/Stack.h"

#include <list>
#include <mutex>
#include <unordered_map>

namespace silver {
namespace stack {

class PrepareCache {
public:
  explicit PrepareCache(size_t Capacity = 32)
      : Capacity(Capacity ? Capacity : 1) {}

  /// Cache-aware stack::prepare: returns a Prepared whose compiled
  /// program comes from the cache when the (source, options) key was
  /// seen before.
  Result<Prepared> prepare(const RunSpec &Spec);

  struct CacheStats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Evictions = 0;
    size_t Entries = 0;
  };
  CacheStats stats() const;
  void clear();

  /// Canonical key: the source text plus a serialization of every
  /// compile-relevant option (exact, not a hash — a collision would
  /// silently serve the wrong program).  Public because the cluster
  /// dispatcher routes jobs by this key, so every submission of the
  /// same program lands on the shard whose cache is already hot.
  static std::string keyOf(const RunSpec &Spec);

private:
  size_t Capacity;
  mutable std::mutex Mu;
  CacheStats Stats;
  /// What a key maps to: the program and its immutable boot snapshot.
  struct Entry {
    cml::Compiled Program;
    std::shared_ptr<const sys::BootSnapshot> Snapshot;
  };
  /// Front = most recently used.
  std::list<std::pair<std::string, Entry>> Lru;
  std::unordered_map<std::string,
                     std::list<std::pair<std::string, Entry>>::iterator>
      Index;
};

} // namespace stack
} // namespace silver

#endif // SILVER_STACK_PREPARECACHE_H
