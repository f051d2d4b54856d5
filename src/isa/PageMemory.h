//===- isa/PageMemory.h - Page-granular machine memory ---------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The 4 KiB page model shared by the machine state (the ISA state's
/// memory and the lab DRAM alike), the decode cache, the JIT, boot
/// snapshots (sys/Image.h) and the StateDigest (stack/Executor.h):
///
///  - MemoryBytes, the byte vector that holds a MachineState's memory.
///    Its allocator hands out memory the kernel zero-fills lazily, so a
///    4 MiB state costs only the pages a run touches, not a memset.
///  - The page-state table: one byte of PageFlag bits per page.  Written
///    pages are what a digest rehashes and what a recycled memory
///    clears; code pages are where a JIT store must leave native code.
///  - The page hash: a page is hashed a 64-bit little-endian word at a
///    time, and a memory's hash folds its page hashes in address order
///    with the same mixing step.  Each step is a bijection of the running
///    hash for a fixed input word, so two memories of one size that
///    differ in a single word (in particular a single byte) never
///    collide.  memoryHash() computes the function from scratch;
///    memoryHashOf() reuses known hashes for pages the table does not
///    mark written.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_ISA_PAGEMEMORY_H
#define SILVER_ISA_PAGEMEMORY_H

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

namespace silver {
namespace isa {

/// 4 KiB pages: the granularity of every per-page table over memory.
inline constexpr unsigned PageShift = 12;
inline constexpr size_t PageSize = size_t(1) << PageShift;

/// Pages spanned by \p Bytes of memory (a partial last page counts).
constexpr size_t pageCount(size_t Bytes) {
  return (Bytes + PageSize - 1) >> PageShift;
}

/// The bits of a page-state table entry.
enum PageFlag : uint8_t {
  /// Written since the memory was instantiated (sys::instantiate): the
  /// page may differ from the boot snapshot's.
  PageWritten = 1,
  /// Holds an instruction the decode cache decoded or the source of a
  /// compiled JIT block: a store here must drop derived code.  Only
  /// cleared when the whole table is reset.
  PageCode = 2,
};

/// Raw zero-filled storage: buffers of 1 MiB and more come straight from
/// mmap (zero pages are filled on first touch), smaller ones from calloc.
void *allocateZeroed(size_t Bytes);
void releaseZeroed(void *P, size_t Bytes);

/// Allocator whose fresh storage is already zero, so value-initialising
/// construction is a no-op: `MemoryBytes(N)` is N zero bytes without
/// touching them.  A vector using it must never shrink and then grow in
/// place (the regrown tail would keep its old bytes); machine memory is
/// sized once, at construction.
template <class T> struct ZeroedAllocator {
  using value_type = T;
  ZeroedAllocator() = default;
  template <class U> ZeroedAllocator(const ZeroedAllocator<U> &) {}

  T *allocate(size_t N) {
    void *P = allocateZeroed(N * sizeof(T));
    if (!P)
      throw std::bad_alloc();
    return static_cast<T *>(P);
  }
  void deallocate(T *P, size_t N) { releaseZeroed(P, N * sizeof(T)); }

  /// Value-initialisation only; construction from a value falls back to
  /// placement new through std::allocator_traits.
  template <class U> void construct(U *) {}

  template <class U> bool operator==(const ZeroedAllocator<U> &) const {
    return true;
  }
};

/// A MachineState's memory bytes.
using MemoryBytes = std::vector<uint8_t, ZeroedAllocator<uint8_t>>;

/// Hash of one page: \p Len (at most PageSize) bytes at \p Data, read as
/// 64-bit little-endian words with a zero-padded tail.
uint64_t pageHash(const uint8_t *Data, size_t Len);

/// pageHash of an all-zero PageSize page.
uint64_t zeroPageHash();

/// The memory hash of \p Size bytes at \p Data, from scratch.  All-zero
/// full pages take zeroPageHash() without being hashed.
uint64_t memoryHash(const uint8_t *Data, size_t Size);

/// The same function as memoryHash(), computed incrementally: page I is
/// rehashed only when \p Flags[I] has PageWritten, otherwise its hash is
/// \p Known[I].  Both tables have pageCount(Size) entries, and Known
/// must hold the hashes of the pages as they were before the first
/// write that Flags records (for a booted state: the snapshot's).
uint64_t memoryHashOf(const uint8_t *Data, size_t Size, const uint8_t *Flags,
                      const uint64_t *Known);

} // namespace isa
} // namespace silver

#endif // SILVER_ISA_PAGEMEMORY_H
