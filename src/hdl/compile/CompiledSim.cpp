//===- hdl/compile/CompiledSim.cpp - Compiled simulator backend --------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "hdl/compile/CompiledSim.h"

#include <cassert>

using namespace silver;
using namespace silver::hdl;

namespace {

uint64_t maskTo(unsigned Width, uint64_t Bits) {
  return Width >= 64 ? Bits : (Bits & ((uint64_t(1) << Width) - 1));
}

} // namespace

Result<std::shared_ptr<CompiledModule>>
CompiledModule::create(const VModule &M, const BuildOptions &O) {
  Result<GeneratedModule> G = generateCpp(M);
  if (!G)
    return G.error();
  Result<std::shared_ptr<LoadedModule>> Code = buildAndLoad(*G, O);
  if (!Code)
    return Code.error();
  CompiledCycleFn Entry = (*Code)->cycle();
  return std::shared_ptr<CompiledModule>(new CompiledModule(
      std::move(G->Layout), Entry, G->DesignHash, Code.take()));
}

Result<std::shared_ptr<CompiledModule>>
CompiledModule::link(const VModule &M, CompiledCycleFn Cycle,
                     uint64_t LinkedHash) {
  Result<GeneratedModule> G = generateCpp(M);
  if (!G)
    return G.error();
  if (G->DesignHash != LinkedHash)
    return Error("compiled sim: the linked simulator of '" + M.Name +
                 "' is stale (design hash " + std::to_string(LinkedHash) +
                 ", generator says " + std::to_string(G->DesignHash) +
                 "); rebuild the project");
  return std::shared_ptr<CompiledModule>(new CompiledModule(
      std::move(G->Layout), Cycle, LinkedHash, nullptr));
}

//===----------------------------------------------------------------------===//
// CompiledSim
//===----------------------------------------------------------------------===//

Result<std::unique_ptr<CompiledSim>>
CompiledSim::compile(const VModule &M, const BuildOptions &O) {
  Result<std::shared_ptr<CompiledModule>> Mod = CompiledModule::create(M, O);
  if (!Mod)
    return Mod.error();
  return std::make_unique<CompiledSim>(Mod.take());
}

CompiledSim::CompiledSim(std::shared_ptr<CompiledModule> M)
    : Module(std::move(M)) {
  const CompiledLayout &L = Module->Layout;
  Values.assign(L.SlotWidths.size(), 0);
  Mems.resize(L.MemDepths.size());
  for (size_t I = 0; I != L.MemDepths.size(); ++I)
    Mems[I].assign(L.MemDepths[I], 0);
  MemPtrs.resize(Mems.size());
  for (size_t I = 0; I != Mems.size(); ++I)
    MemPtrs[I] = Mems[I].data();
}

CompiledSim::~CompiledSim() = default;

Result<void> CompiledSim::stepDense(const uint64_t *Inputs, size_t Count) {
  const CompiledLayout &L = Module->Layout;
  if (Count != L.InputSlots.size())
    return Error("compiled sim: dense input frame has " +
                 std::to_string(Count) + " values, module has " +
                 std::to_string(L.InputSlots.size()) + " input ports");
  for (size_t K = 0; K != Count; ++K) {
    int Slot = L.InputSlots[K].second;
    unsigned W = L.SlotWidths[Slot];
    Values[Slot] = maskTo(W == 0 ? 1 : W, Inputs[K]);
  }
  if (int Rc = Module->Entry(Values.data(), MemPtrs.data()); Rc != 0)
    return Error(std::string("compiled sim: memory ") +
                 (Rc == 2 ? "read" : "write") + " out of range");
  if (CycleObs != nullptr)
    CycleObs->onCycle(Cycle);
  ++Cycle;
  return {};
}

size_t CompiledSim::numInputs() const {
  return Module->Layout.InputSlots.size();
}

const std::string &CompiledSim::inputName(size_t Ordinal) const {
  assert(Ordinal < Module->Layout.InputSlots.size() &&
         "input ordinal out of range");
  return Module->Layout.InputSlots[Ordinal].first;
}

int CompiledSim::slotOf(const std::string &Name) const {
  const auto &S = Module->Layout.ScalarSlots;
  auto It = S.find(Name);
  return It == S.end() ? -1 : It->second;
}

int CompiledSim::memSlotOf(const std::string &Name) const {
  const auto &S = Module->Layout.MemSlots;
  auto It = S.find(Name);
  return It == S.end() ? -1 : It->second;
}

uint64_t CompiledSim::valueOf(int Slot) const {
  assert(Slot >= 0 && static_cast<size_t>(Slot) < Values.size());
  return Values[Slot];
}

void CompiledSim::setValue(int Slot, uint64_t Bits) {
  assert(Slot >= 0 && static_cast<size_t>(Slot) < Values.size());
  unsigned W = Module->Layout.SlotWidths[Slot];
  Values[Slot] = maskTo(W == 0 ? 1 : W, Bits);
}

const std::vector<uint64_t> &CompiledSim::memOf(int MemSlot) const {
  assert(MemSlot >= 0 && static_cast<size_t>(MemSlot) < Mems.size());
  return Mems[MemSlot];
}

std::vector<uint64_t> &CompiledSim::memOf(int MemSlot) {
  assert(MemSlot >= 0 && static_cast<size_t>(MemSlot) < Mems.size());
  return Mems[MemSlot];
}

void CompiledSim::setCycleObserver(obs::Observer *O) { CycleObs = O; }

SimState CompiledSim::exportState(const VModule &M) const {
  SimState S = SimState::init(M);
  const CompiledLayout &L = Module->Layout;
  for (auto &[Name, Value] : S.Vars) {
    if (Value.K == VValue::Kind::Mem) {
      Value.Elems = memOf(memSlotOf(Name));
      continue;
    }
    auto It = L.ScalarSlots.find(Name);
    if (It == L.ScalarSlots.end())
      continue;
    if (Value.K == VValue::Kind::Bool)
      Value.B = Values[It->second] != 0;
    else
      Value.Bits = maskTo(Value.Width, Values[It->second]);
  }
  return S;
}
