//===- isa/ExecBackend.h - The ISA execution backend -----------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one execution backend over the Silver ISA's run loop: isa::run
/// over an owned DecodeCache, with the baseline JIT (isa/jit/Jit.h)
/// entered as its block hook when the backend was asked for one.  The
/// layers above (machine::MachineSem, the stack::Executor ISA session)
/// hold a backend by value and never special-case the JIT.
///
/// The contract is the reference semantics of isa/Interp.h, bit for bit:
/// identical step counts, identical faults, identical MachineState after
/// any budgeted run, with or without the JIT.  The backend owns all
/// derived execution state (decoded slots, compiled blocks), and moving
/// the backend moves it along; invalidate() is the single notification
/// point for out-of-band memory writes — the machine-sem FFI interference
/// oracle, image patching, tests — and subsumes the DecodeCache
/// invalidation contract (DecodeCache.h).
///
/// Observed (observer-instrumented) runs are interpreter-exact by
/// definition: they never enter the JIT, so event streams never depend
/// on whether the backend has one.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_ISA_EXECBACKEND_H
#define SILVER_ISA_EXECBACKEND_H

#include "isa/DecodeCache.h"
#include "isa/Interp.h"
#include "isa/jit/Jit.h"

#include <memory>
#include <optional>

namespace silver {
namespace isa {

class ExecBackend {
public:
  /// Interprets, or — given \p Opts — runs hot blocks natively when the
  /// host supports it (jit::hostSupported()) and the JIT's code arena
  /// and thunks set up; otherwise it interprets.
  explicit ExecBackend(std::optional<jit::JitOptions> Opts = std::nullopt);
  ExecBackend(ExecBackend &&) noexcept;
  ExecBackend &operator=(ExecBackend &&) noexcept;
  ~ExecBackend();

  /// isa::run over the backend's derived state (the same parameters
  /// minus the cache): runs until halt, fault, \p MaxSteps instructions,
  /// or PC reaching \p StopPc, observed when Hooks->Obs is set.
  RunResult run(MachineState &State, IsaEnv &Env, uint64_t MaxSteps,
                std::optional<Word> StopPc = std::nullopt,
                ObsHooks *Hooks = nullptr);

  /// Memory bytes [Addr, Addr+Size) changed behind the backend's back;
  /// drop every derived artifact (decoded slots, compiled blocks) that
  /// depends on them.
  void invalidate(Word Addr, Word Size);

  const DecodeCache::Stats &decodeStats() const { return Cache.stats(); }

  /// What the JIT did; null when the backend interprets.
  const jit::JitStats *jitStats() const;

private:
  DecodeCache Cache;
  /// Null when the backend interprets.
  std::unique_ptr<jit::Jit> Jit;
};

} // namespace isa
} // namespace silver

#endif // SILVER_ISA_EXECBACKEND_H
