//===- isa/ExecBackend.cpp - Pluggable ISA execution backends -------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "isa/ExecBackend.h"

using namespace silver;
using namespace silver::isa;

ExecBackend::~ExecBackend() = default;

namespace {

class InterpBackend final : public ExecBackend {
public:
  RunResult run(MachineState &State, IsaEnv &Env, uint64_t MaxSteps,
                std::optional<Word> StopPc, ObsHooks *Hooks) override {
    return isa::run(State, Env, Cache, MaxSteps, StopPc, Hooks);
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

} // namespace

std::unique_ptr<ExecBackend> silver::isa::makeInterpBackend() {
  return std::make_unique<InterpBackend>();
}
