//===- hdl/ModuleSim.cpp - Common module-simulator state ---------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "hdl/ModuleSim.h"

#include <cassert>

using namespace silver;
using namespace silver::hdl;

namespace {

uint64_t maskTo(unsigned Width, uint64_t Bits) {
  return Width >= 64 ? Bits : (Bits & ((uint64_t(1) << Width) - 1));
}

/// Masks \p Bits to a slot of subset width \p Width (0 = bool).
uint64_t maskToSlot(unsigned Width, uint64_t Bits) {
  return maskTo(Width == 0 ? 1 : Width, Bits);
}

} // namespace

ModuleSim::ModuleSim(std::shared_ptr<const CompiledLayout> LayoutIn,
                     std::vector<uint64_t> SlotsIn)
    : Layout(std::move(LayoutIn)), Slots(std::move(SlotsIn)) {
  assert(Slots.size() >= Layout->SlotWidths.size());
  for (size_t Depth : Layout->MemDepths)
    Mems.emplace_back(Depth, 0);
}

ModuleSim::~ModuleSim() = default;

Result<void> ModuleSim::stepDense(const uint64_t *Inputs, size_t Count) {
  const CompiledLayout &L = *Layout;
  if (Count != L.InputSlots.size())
    return Error("module sim: dense input frame has " + std::to_string(Count) +
                 " values, module has " + std::to_string(L.InputSlots.size()) +
                 " input ports");
  for (size_t K = 0; K != Count; ++K) {
    int Slot = L.InputSlots[K].second;
    Slots[Slot] = maskToSlot(L.SlotWidths[Slot], Inputs[K]);
  }
  if (int Fault = cycle(); Fault != 0) {
    // The reference's wording (hdl::stepCycle).
    const std::string &Mem = L.MemNames[(Fault - 1) / 2];
    return Error(Fault % 2 == 1
                     ? "memory index out of range in '" + Mem + "'"
                     : "memory write out of range in '" + Mem + "'");
  }
  if (CycleObs)
    CycleObs->onCycle(Cycle);
  ++Cycle;
  return {};
}

const std::string &ModuleSim::inputName(size_t Ordinal) const {
  assert(Ordinal < Layout->InputSlots.size() && "input ordinal out of range");
  return Layout->InputSlots[Ordinal].first;
}

int ModuleSim::slotOf(const std::string &Name) const {
  auto It = Layout->ScalarSlots.find(Name);
  return It == Layout->ScalarSlots.end() ? -1 : It->second;
}

int ModuleSim::memSlotOf(const std::string &Name) const {
  auto It = Layout->MemSlots.find(Name);
  return It == Layout->MemSlots.end() ? -1 : It->second;
}

uint64_t ModuleSim::valueOf(int Slot) const {
  assert(Slot >= 0 && static_cast<size_t>(Slot) < Layout->SlotWidths.size());
  return Slots[Slot];
}

void ModuleSim::setValue(int Slot, uint64_t Bits) {
  assert(Slot >= 0 && static_cast<size_t>(Slot) < Layout->SlotWidths.size());
  Slots[Slot] = maskToSlot(Layout->SlotWidths[Slot], Bits);
}

const std::vector<uint64_t> &ModuleSim::memOf(int MemSlot) const {
  assert(MemSlot >= 0 && static_cast<size_t>(MemSlot) < Mems.size());
  return Mems[MemSlot];
}

std::vector<uint64_t> &ModuleSim::memOf(int MemSlot) {
  assert(MemSlot >= 0 && static_cast<size_t>(MemSlot) < Mems.size());
  return Mems[MemSlot];
}

SimState ModuleSim::exportState(const VModule &M) const {
  SimState S = SimState::init(M);
  for (auto &[Name, Value] : S.Vars) {
    if (Value.K == VValue::Kind::Mem) {
      Value.Elems = memOf(memSlotOf(Name));
      continue;
    }
    int Slot = slotOf(Name);
    if (Slot < 0)
      continue;
    if (Value.K == VValue::Kind::Bool)
      Value.B = Slots[Slot] != 0;
    else
      Value.Bits = maskTo(Value.Width, Slots[Slot]);
  }
  return S;
}
