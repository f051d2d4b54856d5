//===- isa/PageMemory.cpp - Page-granular machine memory -------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "isa/PageMemory.h"

#include <bit>
#include <cstdlib>
#include <cstring>
#include <sys/mman.h>

using namespace silver;
using namespace silver::isa;

/// Buffers this large are mapped rather than calloc'ed: glibc's dynamic
/// mmap threshold would otherwise serve repeat 4 MiB states from the
/// heap, where calloc has to clear them byte for byte.
static constexpr size_t MapThreshold = size_t(1) << 20;

void *silver::isa::allocateZeroed(size_t Bytes) {
  if (Bytes < MapThreshold)
    return std::calloc(Bytes ? Bytes : 1, 1);
  void *P = ::mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (P == MAP_FAILED)
    return nullptr;
  // Small pages only: a huge page would zero 2 MiB on the first touch of
  // a state that may write a dozen 4 KiB pages in its whole run.
  ::madvise(P, Bytes, MADV_NOHUGEPAGE);
  return P;
}

void silver::isa::releaseZeroed(void *P, size_t Bytes) {
  if (!P)
    return;
  if (Bytes < MapThreshold)
    std::free(P);
  else
    ::munmap(P, Bytes);
}

/// Starting value of a page hash and of the running memory hash.
static constexpr uint64_t HashSeed = 0xcbf29ce484222325ull;

/// One mixing step: for a fixed \p W, both halves are bijections of the
/// running value (xor-then-odd-multiply, then xorshift), so the hash of
/// a sequence changes whenever exactly one of its words does.
static inline uint64_t mix(uint64_t H, uint64_t W) {
  H = (H ^ W) * 0x9e3779b97f4a7c15ull;
  return H ^ (H >> 32);
}

static inline uint64_t loadLe64(const uint8_t *P) {
  uint64_t W;
  std::memcpy(&W, P, 8);
  if constexpr (std::endian::native == std::endian::big)
    W = __builtin_bswap64(W);
  return W;
}

uint64_t silver::isa::pageHash(const uint8_t *Data, size_t Len) {
  uint64_t H = HashSeed;
  size_t I = 0;
  for (; I + 8 <= Len; I += 8)
    H = mix(H, loadLe64(Data + I));
  if (I != Len) {
    uint8_t Tail[8] = {};
    std::memcpy(Tail, Data + I, Len - I);
    H = mix(H, loadLe64(Tail));
  }
  return H;
}

uint64_t silver::isa::zeroPageHash() {
  static const uint64_t Zero = [] {
    static const uint8_t Page[PageSize] = {};
    return pageHash(Page, PageSize);
  }();
  return Zero;
}

static bool allZero(const uint8_t *Data, size_t Len) {
  uint64_t Acc = 0;
  for (size_t I = 0; I + 8 <= Len; I += 8) {
    uint64_t W;
    std::memcpy(&W, Data + I, 8);
    Acc |= W;
  }
  return Acc == 0;
}

/// Hash of page \p I of a \p Size-byte memory at \p Data.
static uint64_t hashPageAt(const uint8_t *Data, size_t Size, size_t I) {
  size_t Begin = I << PageShift;
  size_t Len = Size - Begin < PageSize ? Size - Begin : PageSize;
  if (Len == PageSize && allZero(Data + Begin, PageSize))
    return zeroPageHash();
  return pageHash(Data + Begin, Len);
}

uint64_t silver::isa::memoryHash(const uint8_t *Data, size_t Size) {
  uint64_t H = HashSeed;
  for (size_t I = 0, N = pageCount(Size); I != N; ++I)
    H = mix(H, hashPageAt(Data, Size, I));
  return H;
}

uint64_t silver::isa::memoryHashOf(const uint8_t *Data, size_t Size,
                                   const uint8_t *Flags,
                                   const uint64_t *Known) {
  uint64_t H = HashSeed;
  for (size_t I = 0, N = pageCount(Size); I != N; ++I)
    H = mix(H, Flags[I] & PageWritten ? hashPageAt(Data, Size, I) : Known[I]);
  return H;
}
