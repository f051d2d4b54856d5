//===- isa/ExecBackend.h - Pluggable ISA execution backends ----*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One interface over the step/run/runUntilPc/isHalted entry points of
/// the Silver ISA, so the layers above (machine::MachineSem, the
/// stack::Executor ISA session, cpu::checkIsaRtl) stop special-casing
/// the interpreter and can swap in the baseline JIT (isa/jit/Jit.h)
/// without touching their run loops.
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

  /// Stable backend identifier ("interp", "jit") for stats and logs.
  virtual const char *name() const = 0;

  /// One step of the ISA semantics (reference-exact, including faults).
  virtual StepResult step(MachineState &State, IsaEnv &Env) = 0;

  /// Fused is_halted test and step (see isa::stepUnlessHalted).
  virtual HaltOrStep stepUnlessHalted(MachineState &State, IsaEnv &Env) = 0;

  /// Instrumented variant: emits mem/retire events to \p Obs.
  virtual HaltOrStep stepUnlessHalted(MachineState &State, IsaEnv &Env,
                                      obs::Observer &Obs,
                                      uint64_t RetireIndex) = 0;

  /// The paper's is_halted predicate (through the backend's decode
  /// cache, which marks the pages it decodes; see DecodeCache.h).
  virtual bool isHalted(MachineState &State) = 0;

  /// Runs until halt, fault, or \p MaxSteps instructions execute.
  virtual RunResult run(MachineState &State, IsaEnv &Env,
                        uint64_t MaxSteps) = 0;

  /// Instrumented run; with a null Hooks.Obs this is exactly run().
  virtual RunResult run(MachineState &State, IsaEnv &Env, uint64_t MaxSteps,
                        ObsHooks &Hooks) = 0;

  /// Runs, additionally stopping — before executing — whenever PC equals
  /// \p StopPc (the machine-sem FFI-boundary burst loop).
  virtual RunStopResult runUntilPc(MachineState &State, IsaEnv &Env,
                                   uint64_t MaxSteps, Word StopPc) = 0;

  /// Memory bytes [Addr, Addr+Size) changed behind the backend's back;
  /// drop every derived artifact (decoded slots, compiled blocks) that
  /// depends on them.
  virtual void invalidate(Word Addr, Word Size) = 0;

  /// Memory changed in unknown ways; forget everything derived.
  virtual void invalidateAll() = 0;

  /// Decode-cache statistics (all backends decode through one).
  virtual const DecodeCache::Stats &decodeStats() const = 0;
};

/// The reference backend: the predecoded interpreter of isa/Interp.h
/// over an owned DecodeCache.
class InterpBackend final : public ExecBackend {
public:
  const char *name() const override { return "interp"; }
  StepResult step(MachineState &State, IsaEnv &Env) override {
    return isa::step(State, Env, Cache);
  }
  HaltOrStep stepUnlessHalted(MachineState &State, IsaEnv &Env) override {
    return isa::stepUnlessHalted(State, Env, Cache);
  }
  HaltOrStep stepUnlessHalted(MachineState &State, IsaEnv &Env,
                              obs::Observer &Obs,
                              uint64_t RetireIndex) override {
    return isa::stepUnlessHalted(State, Env, Obs, RetireIndex, Cache);
  }
  bool isHalted(MachineState &State) override {
    return isa::isHalted(State, Cache);
  }
  RunResult run(MachineState &State, IsaEnv &Env,
                uint64_t MaxSteps) override {
    return isa::run(State, Env, MaxSteps, Cache);
  }
  RunResult run(MachineState &State, IsaEnv &Env, uint64_t MaxSteps,
                ObsHooks &Hooks) override {
    return isa::run(State, Env, MaxSteps, Hooks, Cache);
  }
  RunStopResult runUntilPc(MachineState &State, IsaEnv &Env,
                           uint64_t MaxSteps, Word StopPc) override {
    return isa::runUntilPc(State, Env, MaxSteps, StopPc, Cache);
  }
  void invalidate(Word Addr, Word Size) override {
    Cache.invalidate(Addr, Size);
  }
  void invalidateAll() override { Cache.invalidateAll(); }
  const DecodeCache::Stats &decodeStats() const override {
    return Cache.stats();
  }

private:
  DecodeCache Cache;
};

/// Creates the interpreter backend.
std::unique_ptr<ExecBackend> makeInterpBackend();

} // namespace isa
} // namespace silver

#endif // SILVER_ISA_EXECBACKEND_H
