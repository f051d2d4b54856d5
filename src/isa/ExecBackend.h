//===- isa/ExecBackend.h - Pluggable ISA execution backends ----*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One interface over the Silver ISA's run loop, so the layers above
/// (machine::MachineSem, the stack::Executor ISA session) stop
/// special-casing the interpreter and can swap in the baseline JIT
/// (isa/jit/Jit.h) without touching their run loops.
///
/// The contract every backend implements is the reference semantics of
/// isa/Interp.h, bit for bit: identical step counts, identical faults,
/// identical MachineState after any budgeted run.  A backend owns
/// whatever derived execution state it needs (the interpreter's
/// DecodeCache, the JIT's compiled-block cache); invalidate() is the
/// single notification point for out-of-band memory writes — the
/// machine-sem FFI interference oracle, image patching, tests — and
/// subsumes the DecodeCache invalidation contract (DecodeCache.h).
///
/// Observed (observer-instrumented) runs are interpreter-exact by
/// definition: backends that execute translated code fall back to the
/// interpreter whenever an observer is attached, so event streams never
/// depend on the backend choice.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_ISA_EXECBACKEND_H
#define SILVER_ISA_EXECBACKEND_H

#include "isa/DecodeCache.h"
#include "isa/Interp.h"

#include <memory>

namespace silver {
namespace isa {

class ExecBackend {
public:
  virtual ~ExecBackend();

  /// isa::run over the backend's derived state (the same parameters
  /// minus the cache): runs until halt, fault, \p MaxSteps instructions,
  /// or PC reaching \p StopPc, observed when Hooks->Obs is set.
  virtual RunResult run(MachineState &State, IsaEnv &Env, uint64_t MaxSteps,
                        std::optional<Word> StopPc = std::nullopt,
                        ObsHooks *Hooks = nullptr) = 0;

  /// Memory bytes [Addr, Addr+Size) changed behind the backend's back;
  /// drop every derived artifact (decoded slots, compiled blocks) that
  /// depends on them.
  virtual void invalidate(Word Addr, Word Size) = 0;

  /// Memory changed in unknown ways; forget everything derived.
  virtual void invalidateAll() = 0;

  /// Decode-cache statistics (all backends decode through one).
  virtual const DecodeCache::Stats &decodeStats() const = 0;
};

/// Creates the reference backend: the predecoded interpreter of
/// isa/Interp.h over an owned DecodeCache.
std::unique_ptr<ExecBackend> makeInterpBackend();

} // namespace isa
} // namespace silver

#endif // SILVER_ISA_EXECBACKEND_H
