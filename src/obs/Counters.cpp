//===- obs/Counters.cpp - Aggregating performance counters -------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "obs/Counters.h"

#include <cstdio>

using namespace silver;
using namespace silver::obs;

void Counters::reset() {
  Retired = 0;
  Cycles = 0;
  OpcodeCounts.fill(0);
  RegionLoads.fill(0);
  RegionStores.fill(0);
  Ffi.clear();
  InFfi = false;
}

void Counters::mergeFrom(const Counters &Other) {
  Retired += Other.Retired;
  Cycles += Other.Cycles;
  for (size_t I = 0; I != OpcodeCounts.size(); ++I)
    OpcodeCounts[I] += Other.OpcodeCounts[I];
  for (size_t I = 0; I != NumRegions; ++I) {
    RegionLoads[I] += Other.RegionLoads[I];
    RegionStores[I] += Other.RegionStores[I];
  }
  if (Ffi.size() < Other.Ffi.size())
    Ffi.resize(Other.Ffi.size());
  for (size_t I = 0; I != Other.Ffi.size(); ++I) {
    Ffi[I].Calls += Other.Ffi[I].Calls;
    Ffi[I].Instructions += Other.Ffi[I].Instructions;
    Ffi[I].Cycles += Other.Ffi[I].Cycles;
  }
}

void Counters::onRunBegin(ExecLevel L) {
  Level = L;
  InFfi = false;
}

void Counters::onRetire(const RetireEvent &E) {
  ++Retired;
  if (E.Opcode < OpcodeCounts.size())
    ++OpcodeCounts[E.Opcode];
}

void Counters::onMem(const MemEvent &E) {
  unsigned R = static_cast<unsigned>(Map.classify(E.Addr));
  if (E.IsWrite)
    ++RegionStores[R];
  else
    ++RegionLoads[R];
}

void Counters::onFfi(const FfiEvent &E) {
  if (E.Index >= Ffi.size())
    Ffi.resize(E.Index + 1);
  if (E.Entry) {
    ++Ffi[E.Index].Calls;
    InFfi = true;
    FfiIndex = E.Index;
    FfiEntryRetired = Retired;
    FfiEntryCycles = Cycles;
  } else if (InFfi && E.Index == FfiIndex) {
    Ffi[E.Index].Instructions += Retired - FfiEntryRetired;
    Ffi[E.Index].Cycles += Cycles - FfiEntryCycles;
    InFfi = false;
  }
}

void Counters::onCycle(uint64_t) { ++Cycles; }

void Counters::onRunEnd() {
  // An "exit" call halts inside the system-call code, so its span never
  // sees a matching exit event; close it here.
  if (InFfi) {
    Ffi[FfiIndex].Instructions += Retired - FfiEntryRetired;
    Ffi[FfiIndex].Cycles += Cycles - FfiEntryCycles;
    InFfi = false;
  }
}

std::string Counters::ffiLabel(unsigned Index) const {
  if (Index < FfiNames.size())
    return FfiNames[Index];
  return "ffi#" + std::to_string(Index);
}

std::string Counters::report() const {
  char Line[160];
  std::string Out;
  std::snprintf(Line, sizeof(Line),
                "level: %s\ninstructions: %llu\ncycles: %llu\nCPI: %.3f\n",
                execLevelName(Level), (unsigned long long)Retired,
                (unsigned long long)Cycles, cpi());
  Out += Line;
  Out += "region traffic (loads/stores):\n";
  for (unsigned R = 0; R != NumRegions; ++R) {
    if (RegionLoads[R] == 0 && RegionStores[R] == 0)
      continue;
    std::snprintf(Line, sizeof(Line), "  %-10s %12llu %12llu\n",
                  regionName(static_cast<Region>(R)),
                  (unsigned long long)RegionLoads[R],
                  (unsigned long long)RegionStores[R]);
    Out += Line;
  }
  bool AnyFfi = false;
  for (const FfiCost &C : Ffi)
    AnyFfi |= C.Calls != 0;
  if (AnyFfi) {
    Out += "syscall cost (calls/instructions/cycles):\n";
    for (unsigned I = 0; I != Ffi.size(); ++I) {
      if (Ffi[I].Calls == 0)
        continue;
      std::snprintf(Line, sizeof(Line), "  %-14s %8llu %12llu %12llu\n",
                    ffiLabel(I).c_str(), (unsigned long long)Ffi[I].Calls,
                    (unsigned long long)Ffi[I].Instructions,
                    (unsigned long long)Ffi[I].Cycles);
      Out += Line;
    }
  }
  return Out;
}

std::string Counters::toJson() const {
  char Buf[96];
  std::string Out = "{";
  Out += "\"level\":\"" + std::string(execLevelName(Level)) + "\"";
  std::snprintf(Buf, sizeof(Buf), ",\"instructions\":%llu,\"cycles\":%llu",
                (unsigned long long)Retired, (unsigned long long)Cycles);
  Out += Buf;
  std::snprintf(Buf, sizeof(Buf), ",\"cpi\":%.4f", cpi());
  Out += Buf;
  Out += ",\"regions\":{";
  bool First = true;
  for (unsigned R = 0; R != NumRegions; ++R) {
    if (RegionLoads[R] == 0 && RegionStores[R] == 0)
      continue;
    if (!First)
      Out += ",";
    First = false;
    std::snprintf(Buf, sizeof(Buf), "\"%s\":{\"loads\":%llu,\"stores\":%llu}",
                  regionName(static_cast<Region>(R)),
                  (unsigned long long)RegionLoads[R],
                  (unsigned long long)RegionStores[R]);
    Out += Buf;
  }
  Out += "},\"ffi\":{";
  First = true;
  for (unsigned I = 0; I != Ffi.size(); ++I) {
    if (Ffi[I].Calls == 0)
      continue;
    if (!First)
      Out += ",";
    First = false;
    std::snprintf(Buf, sizeof(Buf),
                  "{\"calls\":%llu,\"instructions\":%llu,\"cycles\":%llu}",
                  (unsigned long long)Ffi[I].Calls,
                  (unsigned long long)Ffi[I].Instructions,
                  (unsigned long long)Ffi[I].Cycles);
    Out += '"' + ffiLabel(I) + "\":" + Buf;
  }
  Out += "}}";
  return Out;
}
