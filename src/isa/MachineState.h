//===- isa/MachineState.h - Silver ISA machine state -----------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Silver ISA machine state (paper §4.1): memory (bytes), a 64-entry
/// register file, the program counter, and carry and overflow flags.
/// The paper models memory as a total function from addresses to bytes;
/// we use a flat byte array of configurable size and treat out-of-range
/// accesses as errors (the machine-sem layer turns these into Fail
/// behaviours, which compiled programs never exhibit).
///
/// The paper's IO-event trace is not part of the state: a run's IO is the
/// FFI trace the levels record at each syscall entry (ffi::IoTrace).
///
/// The state also carries the page-state table (isa/PageMemory.h), one
/// PageFlag byte per 4 KiB page.  Every write through the accessors
/// below marks its page written, so a digest of a booted state can
/// rehash only the pages written since the boot (stack::StateDigest) and
/// a recycled memory clears only those (sys::recycle).  The decode cache
/// and the JIT mark the pages they derive code from (markCode), which is
/// what a JIT store tests before it may run natively.  Direct writes to
/// Memory must mark their pages with markWritten() (the DecodeCache.h
/// contract).  The lab DRAM of the hardware levels is a MachineState
/// too, so both memories share the table and the digest.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_ISA_MACHINESTATE_H
#define SILVER_ISA_MACHINESTATE_H

#include "isa/Instruction.h"
#include "isa/PageMemory.h"
#include "support/Bits.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <vector>

namespace silver {
namespace isa {

/// The Silver machine state.
class MachineState {
public:
  /// Creates a state with \p MemBytes bytes of zeroed memory (filled
  /// lazily, see MemoryBytes), all registers zero, PC zero, clear flags
  /// and no page marked.
  explicit MachineState(size_t MemBytes = DefaultMemBytes)
      : Memory(MemBytes), PageFlags(pageCount(MemBytes), 0) {
    Regs.fill(0);
  }

  /// Default memory size: 16 MiB, comfortably holding the paper's memory
  /// layout (Figure 2) with its ~5 MB stdin region.
  static constexpr size_t DefaultMemBytes = 16u << 20;

  std::array<Word, NumRegs> Regs;
  Word PC = 0;
  bool CarryFlag = false;
  bool OverflowFlag = false;
  MemoryBytes Memory;
  /// The page-state table: PageFlag bits for each 4 KiB page of Memory.
  /// Always pageCount(Memory.size()) entries.
  std::vector<uint8_t> PageFlags;
  /// Last value written by an Out instruction (the data-out port).
  Word DataOut = 0;

  size_t memSize() const { return Memory.size(); }
  bool inRange(Word Addr, Word Size) const {
    return Addr <= Memory.size() && Size <= Memory.size() - Addr;
  }

  /// Little-endian 32-bit read; \p Addr must be in range and word-aligned
  /// (callers check, the interpreter reports errors for violations).
  Word readWord(Word Addr) const {
    return static_cast<Word>(Memory[Addr]) |
           (static_cast<Word>(Memory[Addr + 1]) << 8) |
           (static_cast<Word>(Memory[Addr + 2]) << 16) |
           (static_cast<Word>(Memory[Addr + 3]) << 24);
  }

  /// Marks the pages of [Addr, Addr+Size) written (must be in range).
  void markWritten(Word Addr, Word Size) {
    if (Size == 0)
      return;
    size_t Last = (size_t(Addr) + Size - 1) >> PageShift;
    for (size_t P = Addr >> PageShift; P <= Last; ++P)
      PageFlags[P] |= PageWritten;
  }

  /// Marks the page of \p Addr code (must be in range).
  void markCode(Word Addr) { PageFlags[Addr >> PageShift] |= PageCode; }

  /// Whether a page of [Addr, Addr+Size) is marked code (Size 1 or 4,
  /// in range).
  bool touchesCode(Word Addr, Word Size) const {
    return (PageFlags[Addr >> PageShift] |
            PageFlags[(Addr + (Size - 1)) >> PageShift]) &
           PageCode;
  }

  /// Little-endian 32-bit write.
  void writeWord(Word Addr, Word Value) {
    PageFlags[Addr >> PageShift] |= PageWritten;
    PageFlags[(Addr + 3) >> PageShift] |= PageWritten;
    Memory[Addr] = static_cast<uint8_t>(Value);
    Memory[Addr + 1] = static_cast<uint8_t>(Value >> 8);
    Memory[Addr + 2] = static_cast<uint8_t>(Value >> 16);
    Memory[Addr + 3] = static_cast<uint8_t>(Value >> 24);
  }

  uint8_t readByte(Word Addr) const { return Memory[Addr]; }
  void writeByte(Word Addr, uint8_t Value) {
    PageFlags[Addr >> PageShift] |= PageWritten;
    Memory[Addr] = Value;
  }

  /// Reads \p Len bytes starting at \p Addr (must be in range).
  std::vector<uint8_t> readBytes(Word Addr, Word Len) const {
    return std::vector<uint8_t>(Memory.begin() + Addr,
                                Memory.begin() + Addr + Len);
  }

  /// Writes a byte span starting at \p Addr (must be in range).
  void writeBytes(Word Addr, const std::vector<uint8_t> &Bytes) {
    writeBytes(Addr, Bytes.data(), Bytes.size());
  }
  void writeBytes(Word Addr, const uint8_t *Bytes, size_t Len) {
    markWritten(Addr, static_cast<Word>(Len));
    std::copy(Bytes, Bytes + Len, Memory.begin() + Addr);
  }

  /// Value of a register-or-immediate operand in this state.
  Word operandValue(Operand Op) const {
    return Op.IsImm ? Op.immValue() : Regs[Op.Value];
  }

  /// ISA-visible equality: registers, PC, flags and memory (the paper's
  /// ag32_eq_* relation family).
  bool isaVisibleEquals(const MachineState &O) const {
    return Regs == O.Regs && PC == O.PC && CarryFlag == O.CarryFlag &&
           OverflowFlag == O.OverflowFlag && Memory == O.Memory;
  }
};

} // namespace isa
} // namespace silver

#endif // SILVER_ISA_MACHINESTATE_H
