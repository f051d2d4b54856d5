//===- hdl/compile/CompiledSim.cpp - Compiled simulator backend --------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "hdl/compile/CompiledSim.h"

using namespace silver;
using namespace silver::hdl;

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
    : ModuleSim(M->Layout,
                std::vector<uint64_t>(M->Layout->SlotWidths.size(), 0)),
      Module(std::move(M)) {
  for (std::vector<uint64_t> &Mem : Mems)
    MemPtrs.push_back(Mem.data());
}
