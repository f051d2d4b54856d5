//===- isa/Effects.h - Static per-instruction effect metadata --*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Static effect metadata of one decoded Silver instruction: which
/// registers it can write and read, whether it updates or consumes the
/// ALU flags, its memory-access shape, and whether it interacts with the
/// processor-external environment.  This is the single decoder-side
/// source of truth the static analyses build on: the def/use dataflow
/// summaries (analysis/Dataflow.h), and through them the image audit's
/// syscall-clobber rule, derive their per-instruction footprints from
/// effectsOf, so an ISA extension has exactly one place to declare what
/// an instruction touches.
///
/// The metadata is an over-approximation of the interpreter's handlers
/// (isa/Interp.cpp) by construction: every architectural write the
/// interpreter can perform for an instruction is covered by the masks
/// here.  The effects property test (tests/fuzz/PropertyTest.cpp) holds
/// the two in agreement dynamically: it steps every instruction of the
/// encoding lattices from random states and checks each change against
/// the masks.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_ISA_EFFECTS_H
#define SILVER_ISA_EFFECTS_H

#include "isa/Instruction.h"

namespace silver {
namespace isa {

/// Memory-access shape of an instruction.
enum class MemAccessKind : uint8_t {
  None,  ///< no data-memory access
  Read,  ///< LoadMEM / LoadMEMByte
  Write, ///< StoreMEM / StoreMEMByte
};

/// Static effects of one instruction.  Register sets are 64-bit masks
/// (bit r = register r), matching analysis::RegSummary.
struct EffectInfo {
  uint64_t RegWrites = 0; ///< registers the instruction can write
  uint64_t RegReads = 0;  ///< registers the instruction can read
  bool WritesFlags = false; ///< runs an Add/AddCarry/Sub ALU operation
  bool ReadsFlags = false;  ///< runs AddCarry/Carry/Overflow
  MemAccessKind Mem = MemAccessKind::None;
  uint8_t MemSize = 0;      ///< access bytes: 1 or 4 (0 when Mem is None)
  bool IsIo = false;        ///< Interrupt/In/Out: environment interaction
  bool IsControl = false;   ///< Jump/JumpIfZero/JumpIfNotZero

  bool writes(unsigned Reg) const { return (RegWrites >> Reg) & 1; }
  bool reads(unsigned Reg) const { return (RegReads >> Reg) & 1; }
};

/// Whether ALU function \p F updates the carry/overflow flags.
constexpr bool funcWritesFlags(Func F) {
  return F == Func::Add || F == Func::AddCarry || F == Func::Sub;
}

/// Whether ALU function \p F consumes the current flag values.
constexpr bool funcReadsFlags(Func F) {
  return F == Func::AddCarry || F == Func::Carry || F == Func::Overflow;
}

/// Computes the static effects of \p I.  Pure function of the
/// instruction (address-independent).
EffectInfo effectsOf(const Instruction &I);

} // namespace isa
} // namespace silver

#endif // SILVER_ISA_EFFECTS_H
