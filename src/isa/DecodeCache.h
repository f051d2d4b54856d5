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
/// loop (isa::run, under every ExecBackend) executes from the cached
/// entry instead of re-running fetch-decode every step.
/// This removes the double decode the reference loop performs (isHalted
/// decodes PC, then step decodes it again) — the halt self-jump test
/// becomes a cached flag.
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
/// of its slots, whoever calls it (the run loop, a single cached step,
/// the JIT dispatcher).  A JIT store into a code page leaves native code
/// and is interpreted, so it reaches invalidate(): the table, not the
/// caller, is what keeps every decoded slot guarded.
///
/// Under that contract, executing from the cache is observationally
/// identical to the reference fetch-decode-execute semantics; the
/// dedicated self-modifying-code tests (tests/isa/DecodeCacheTest.cpp)
/// and the differential fuzzer hold the two in agreement.
///
/// The entry keeps the Instruction unpacked (a packed 8-byte encoding
/// was measured ~35% slower in the hot loop — the per-step unpack costs
/// more than the smaller footprint saves).  The cache is paged (4 KiB
/// code pages, 1024 instruction slots) and filled lazily, so its
/// footprint follows the program's code locality, not the 16 MiB
/// address space.
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

/// One predecoded instruction slot.
struct DecodedInsn {
  enum State : uint8_t {
    Empty = 0,   ///< never decoded (or invalidated)
    Decoded = 1, ///< I is the decode of the word at this address
    Illegal = 2, ///< the word at this address does not decode
  };
  Instruction I;
  uint8_t St = Empty;
  /// Cached Instruction::isSelfJump() — the paper's is_halted predicate
  /// reduced to one flag test on the hot path.
  bool SelfJump = false;
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
    if (E.St != DecodedInsn::Empty) {
      ++S.Hits;
      return E;
    }
    ++S.Misses;
    State.markCode(Pc);
    Result<Instruction> Decoded = decode(State.readWord(Pc));
    if (!Decoded) {
      E.St = DecodedInsn::Illegal;
      E.SelfJump = false;
      return E;
    }
    E.I = *Decoded;
    E.St = DecodedInsn::Decoded;
    E.SelfJump = E.I.isSelfJump();
    return E;
  }

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
      if (E.St != DecodedInsn::Empty) {
        E.St = DecodedInsn::Empty;
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
          if (E.St != DecodedInsn::Empty)
            ++S.Invalidations;
          E.St = DecodedInsn::Empty;
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
