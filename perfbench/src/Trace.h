//===- perfbench/src/Trace.h - In-memory span recorder ----------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The traced run's span recorder.  A span is a name, a start and end
/// (steady-clock ns), the span that was open on the same thread when it
/// began (its parent), and the operation (job) it belongs to.  Spans are
/// kept in memory and written once, at the end, in the Chrome/Perfetto
/// trace_event format obs::TraceSink also writes.  A span's layer is its
/// name up to the first dot ("cml.parse" -> "cml"); a layer's self time
/// is its spans' durations minus the time their child spans cover.
///
///   Span S(T, "sys.boot", JobId); // T == nullptr records nothing
///   Exec.begin(Level::Isa);
///
//===----------------------------------------------------------------------===//

#ifndef SILVERBENCH_TRACE_H
#define SILVERBENCH_TRACE_H

#include "support/Result.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace bench {

class Tracer {
public:
  /// Opens a span on the calling thread; returns its id.
  uint32_t open(const char *Name, uint64_t JobId);
  void close(uint32_t Id);

  struct Totals {
    uint64_t Count = 0;
    uint64_t Ns = 0;
  };
  /// Count and summed duration per span name.
  std::map<std::string, Totals> byName() const;
  /// Summed self time per layer.
  std::map<std::string, uint64_t> selfNsByLayer() const;

  silver::Result<void> writeChrome(const std::string &Path) const;

private:
  struct Rec {
    const char *Name;
    uint64_t StartNs;
    uint64_t EndNs;
    uint32_t Parent; ///< 0 = root
    uint32_t Tid;
    uint64_t JobId;
  };
  mutable std::mutex Mu;
  std::vector<Rec> Recs; ///< span id = index + 1
};

/// RAII span; a null tracer makes it a no-op.
class Span {
public:
  Span(Tracer *T, const char *Name, uint64_t JobId)
      : T(T), Id(T ? T->open(Name, JobId) : 0) {}
  ~Span() { end(); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  void end() {
    if (T)
      T->close(Id);
    T = nullptr;
  }

private:
  Tracer *T;
  uint32_t Id;
};

} // namespace bench

#endif // SILVERBENCH_TRACE_H
