//===- isa/DecodeCache.h - Predecoded instruction cache --------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A decode cache for the Silver interpreter: each instruction word is
/// decoded once per address into a dense DecodedInsn entry, and the run
/// loop (isa::run, under isa::ExecBackend) executes from the cached
/// entry instead of re-running fetch-decode every step.
/// This removes the double decode the reference loop performs (isHalted
/// decodes PC, then step decodes it again), and the decode picks the
/// handler that runs the instruction, so a step is one indirect call.
///
/// Correctness contract: an entry is valid for address A only while the
/// word at A is unchanged.  Every path that can write instruction memory
/// must call invalidate(Addr, Size):
///
///  - the interpreter's StoreMEM/StoreMEMByte (self-modifying code —
///    the paper's startup code patches itself),
///  - the machine-sem FFI interference oracle, which writes the syscall
///    id, stdin length, output buffer, and FFI byte-array spans directly
///    into memory (machine/MachineSem.cpp),
///  - any out-of-band mutation of MachineState::Memory (tests, image
///    patching); use invalidateAll() when the touched range is unknown.
///
/// Page-state rule (isa/PageMemory.h): every one of those writes also
/// marks its 4 KiB page written in MachineState::PageFlags, which is what
/// lets a StateDigest rehash only written pages and take every other
/// page's hash from the boot snapshot (stack/Executor.h).
/// MachineState::writeWord/writeByte/writeBytes mark as they write, so
/// the interpreter's stores and the machine-sem oracle's writes are
/// covered by construction; the JIT's translated stores mark the page
/// with one byte store right after their code test (isa/jit/Jit.h);
/// direct writes to Memory call MachineState::markWritten.  A write that
/// skips the mark is a stale digest, exactly as a write that skips
/// invalidate is a stale decode.
///
/// In the other direction, lookup() marks a page code when it fills one
/// of its slots, whoever calls it (the run loop, with or without the
/// JIT's block hook), and only a whole-table reset clears the mark
/// (sys::instantiate, before any backend runs the state).  So a page
/// that is not marked code holds no filled slot, and a store that does
/// not touch a code page has nothing to invalidate: the interpreter's
/// stores test MachineState::touchesCode before they call invalidate(),
/// the test a JIT store makes before it may stay native.  A JIT store
/// into a code page leaves native code and the run loop interprets it,
/// so it reaches invalidate(): the table, not the caller, is what keeps
/// every decoded slot guarded.
///
/// Under that contract, executing from the cache is observationally
/// identical to the reference fetch-decode-execute semantics; the
/// dedicated self-modifying-code tests (tests/isa/DecodeCacheTest.cpp)
/// and the differential fuzzer hold the two in agreement.
///
/// Entry layout.  A slot keeps the Instruction unpacked (a packed 8-byte
/// encoding was measured ~35% slower in the hot loop — the per-step
/// unpack costs more than the smaller footprint saves) and one handler
/// byte, H, which is all the run loop reads before it calls:
///
///  - 0 (Empty): not decoded, or invalidated.  Invalidation resets H
///    and nothing else.  Handler 0 fills the slot (lookup) and runs it.
///  - 1..254: the instruction's form, one handler each, specialised on
///    the opcode, the ALU function or shift kind, and whether each of
///    the operands A and B is an immediate or a register (handlerIndex
///    below; isa/Interp.cpp instantiates the handlers).
///  - 255 (Slow): everything the loop must not run straight away: an
///    illegal word (Illegal set), the halt self-jump, and the
///    Interrupt/In/Out instructions, which call the environment.
///
/// Statistics: lookup() counts a hit or a miss per call.  isa::run
/// calls it only to fill empty slots and adds its hits once, when the
/// run ends (addHits), so the counts are those of one lookup per
/// instruction the run reached: executed, halted at, or faulted on (for
/// the JIT, a block entry is one lookup however long the block).
///
/// The cache is paged (4 KiB code pages, 1024 instruction slots) and
/// filled lazily, so its footprint follows the program's code locality,
/// not the 16 MiB address space.  Pages never move once allocated: the
/// run loop keeps a pointer to the slots of the page it executes from.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_ISA_DECODECACHE_H
#define SILVER_ISA_DECODECACHE_H

#include "isa/Encoding.h"
#include "isa/MachineState.h"

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

namespace silver {
namespace isa {

/// The handler byte of one instruction form (see the file comment).
namespace handler {
inline constexpr uint8_t Empty = 0;
inline constexpr uint8_t Slow = 255;

/// How many of the operands A, B an opcode's handlers specialise on.
constexpr unsigned operandCount(Opcode Op) {
  switch (Op) {
  case Opcode::Normal:
  case Opcode::Shift:
  case Opcode::StoreMEM:
  case Opcode::StoreMEMByte:
  case Opcode::JumpIfZero:
  case Opcode::JumpIfNotZero:
    return 2;
  case Opcode::LoadMEM:
  case Opcode::LoadMEMByte:
  case Opcode::Jump:
    return 1;
  default:
    return 0;
  }
}

/// How many variants (ALU functions, shift kinds) an opcode has.
constexpr unsigned variantCount(Opcode Op) {
  switch (Op) {
  case Opcode::Normal:
  case Opcode::Jump:
  case Opcode::JumpIfZero:
  case Opcode::JumpIfNotZero:
    return NumFuncs;
  case Opcode::Shift:
    return NumShiftKinds;
  default:
    return 1;
  }
}

/// Whether an opcode always takes the slow path.
constexpr bool isIo(Opcode Op) {
  return Op == Opcode::Interrupt || Op == Opcode::In || Op == Opcode::Out;
}

/// Handlers of one opcode: variants times operand forms.
constexpr unsigned formCount(Opcode Op) {
  return isIo(Op) ? 0 : variantCount(Op) << operandCount(Op);
}

/// First handler byte of \p Op's forms; the opcodes follow each other
/// in encoding order from 1.
constexpr unsigned base(Opcode Op) {
  unsigned B = 1;
  for (unsigned O = 0; O != static_cast<unsigned>(Op); ++O)
    B += formCount(static_cast<Opcode>(O));
  return B;
}

/// The handler byte of a form: opcode, variant, immediate A, immediate
/// B (the last two only where operandCount counts them).
constexpr uint8_t index(Opcode Op, unsigned Variant, bool AImm, bool BImm) {
  unsigned N = operandCount(Op);
  unsigned Forms = ((unsigned(AImm) << 1) | unsigned(BImm)) >> (2 - N);
  return static_cast<uint8_t>(base(Op) + (Variant << N) + Forms);
}

static_assert(base(Opcode::Interrupt) == Slow,
              "the fast forms fill 1..254 exactly");
} // namespace handler

/// The handler byte for a decoded \p I: its form, or Slow for the halt
/// self-jump and the I/O instructions.
inline uint8_t handlerIndex(const Instruction &I) {
  if (handler::isIo(I.Op) || I.isSelfJump())
    return handler::Slow;
  unsigned Variant = I.Op == Opcode::Shift ? static_cast<unsigned>(I.Sh)
                                           : static_cast<unsigned>(I.F);
  if (handler::variantCount(I.Op) == 1)
    Variant = 0;
  return handler::index(I.Op, Variant, I.A.IsImm, I.B.IsImm);
}

/// One predecoded instruction slot.
struct DecodedInsn {
  Instruction I;             ///< the decode (meaningless when Illegal)
  uint8_t H = handler::Empty; ///< the handler byte
  bool Illegal = false;      ///< the word does not decode (H is Slow)

  /// The paper's is_halted predicate on a filled slot.
  bool selfJump() const {
    return H == handler::Slow && !Illegal && I.isSelfJump();
  }
};

class DecodeCache {
public:
  struct Stats {
    uint64_t Hits = 0;
    uint64_t Misses = 0;
    uint64_t Invalidations = 0; ///< entries dropped, not invalidate() calls
  };

  /// Entry for word-aligned, in-range \p Pc; decodes and fills the slot
  /// on first use, marking Pc's page code in \p State.  The caller has
  /// already validated alignment and range (the run loops check PC
  /// before the lookup).
  const DecodedInsn &lookup(MachineState &State, Word Pc) {
    DecodedInsn &E = slot(Pc);
    if (E.H != handler::Empty) {
      ++S.Hits;
      return E;
    }
    ++S.Misses;
    State.markCode(Pc);
    Result<Instruction> Decoded = decode(State.readWord(Pc));
    E.Illegal = !Decoded;
    E.I = Decoded ? *Decoded : Instruction();
    E.H = Decoded ? handlerIndex(E.I) : handler::Slow;
    return E;
  }

  /// The slots of \p Pc's page, allocated on first use; they stay where
  /// they are for the cache's lifetime.
  const DecodedInsn *pageSlots(Word Pc) { return &slot(Pc & ~PageMask); }

  /// Counts \p N lookups a run loop resolved from filled slots.
  void addHits(uint64_t N) { S.Hits += N; }

  /// Drops every entry whose instruction word overlaps the byte range
  /// [Addr, Addr+Size).  Cheap when the range is cold: pages that were
  /// never decoded are skipped wholesale.
  void invalidate(Word Addr, Word Size) {
    if (Size == 0)
      return;
    // A write to byte Addr affects the instruction slot at Addr & ~3;
    // the end is exclusive.
    Word First = Addr & ~Word(3);
    Word Last = Addr + (Size - 1); // inclusive; avoids Addr+Size overflow
    for (Word A = First;;) {
      size_t PageIdx = A >> PageShift;
      if (PageIdx >= Pages.size() || !Pages[PageIdx]) {
        // Skip to the next page boundary.
        Word NextPage = (A | PageMask) + 1;
        if (NextPage == 0 || NextPage > Last)
          break;
        A = NextPage;
        continue;
      }
      DecodedInsn &E = Pages[PageIdx]->Slots[(A & PageMask) >> 2];
      if (E.H != handler::Empty) {
        E.H = handler::Empty;
        ++S.Invalidations;
      }
      if (A + 4 < 4 || A + 4 > Last) // overflow or past the range
        break;
      A += 4;
    }
  }

  /// Forgets everything (use when memory changed in unknown ways).
  void invalidateAll() {
    for (std::unique_ptr<Page> &P : Pages)
      if (P)
        for (DecodedInsn &E : P->Slots) {
          if (E.H != handler::Empty)
            ++S.Invalidations;
          E.H = handler::Empty;
        }
  }

  const Stats &stats() const { return S; }

  /// 4 KiB code pages, the granularity of the page-state table.
  static constexpr unsigned PageShift = isa::PageShift;
  static constexpr Word PageMask = (Word(1) << PageShift) - 1;
  static constexpr size_t PageSlots = (size_t(1) << PageShift) / 4;

private:
  struct Page {
    std::array<DecodedInsn, PageSlots> Slots{};
  };

  DecodedInsn &slot(Word Pc) {
    size_t PageIdx = Pc >> PageShift;
    if (PageIdx >= Pages.size())
      Pages.resize(PageIdx + 1);
    if (!Pages[PageIdx])
      Pages[PageIdx] = std::make_unique<Page>();
    return Pages[PageIdx]->Slots[(Pc & PageMask) >> 2];
  }

  std::vector<std::unique_ptr<Page>> Pages;
  Stats S;
};

} // namespace isa
} // namespace silver

#endif // SILVER_ISA_DECODECACHE_H
