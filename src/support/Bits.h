//===- support/Bits.h - Word and bit-field utilities -----------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Bit-field extraction/insertion and sign-extension helpers used by the
/// Silver ISA encoder/decoder, the assembler, and the RTL layers.  These
/// mirror the HOL word operations (w2w, sign extension, slicing) used by
/// the paper's L3-generated ISA.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_SUPPORT_BITS_H
#define SILVER_SUPPORT_BITS_H

#include <cassert>
#include <cstddef>
#include <cstdint>

namespace silver {

/// Silver machine word: 32 bits, as in the ag32 ISA.
using Word = uint32_t;

/// Extracts bits [Hi:Lo] of \p Value (inclusive, Hi >= Lo), right-aligned.
constexpr Word bits(Word Value, unsigned Hi, unsigned Lo) {
  assert(Hi >= Lo && Hi < 32 && "bad bit range");
  Word Mask = (Hi - Lo == 31) ? ~0u : ((1u << (Hi - Lo + 1)) - 1);
  return (Value >> Lo) & Mask;
}

/// Inserts the low (Hi-Lo+1) bits of \p Field into bits [Hi:Lo] of \p Base.
constexpr Word insertBits(Word Base, Word Field, unsigned Hi, unsigned Lo) {
  assert(Hi >= Lo && Hi < 32 && "bad bit range");
  Word Mask = (Hi - Lo == 31) ? ~0u : ((1u << (Hi - Lo + 1)) - 1);
  return (Base & ~(Mask << Lo)) | ((Field & Mask) << Lo);
}

/// Sign-extends the low \p Width bits of \p Value to a full 32-bit word.
constexpr Word signExtend(Word Value, unsigned Width) {
  assert(Width > 0 && Width <= 32 && "bad width");
  if (Width == 32)
    return Value;
  Word SignBit = 1u << (Width - 1);
  Word Mask = (1u << Width) - 1;
  Value &= Mask;
  return (Value ^ SignBit) - SignBit;
}

/// True when \p Value fits in \p Width bits as a signed quantity.
constexpr bool fitsSigned(int64_t Value, unsigned Width) {
  assert(Width > 0 && Width < 64 && "bad width");
  int64_t Lo = -(int64_t(1) << (Width - 1));
  int64_t Hi = (int64_t(1) << (Width - 1)) - 1;
  return Value >= Lo && Value <= Hi;
}

/// True when \p Value fits in \p Width bits as an unsigned quantity.
constexpr bool fitsUnsigned(uint64_t Value, unsigned Width) {
  assert(Width > 0 && Width < 64 && "bad width");
  return Value < (uint64_t(1) << Width);
}

/// Interprets a word as signed (two's complement).
constexpr int32_t asSigned(Word Value) { return static_cast<int32_t>(Value); }

/// Rotates \p Value right by \p Amount (mod 32).
constexpr Word rotateRight(Word Value, unsigned Amount) {
  Amount &= 31;
  if (Amount == 0)
    return Value;
  return (Value >> Amount) | (Value << (32 - Amount));
}

/// True when \p Value is aligned to a multiple of \p Alignment (a power of
/// two), as required by the paper's installed-state assumption (iv).
constexpr bool isAligned(Word Value, Word Alignment) {
  assert((Alignment & (Alignment - 1)) == 0 && "alignment not a power of 2");
  return (Value & (Alignment - 1)) == 0;
}

/// Rounds \p Value up to the next multiple of \p Alignment (a power of two).
constexpr Word alignUp(Word Value, Word Alignment) {
  assert((Alignment & (Alignment - 1)) == 0 && "alignment not a power of 2");
  return (Value + Alignment - 1) & ~(Alignment - 1);
}

/// FNV-1a 64-bit hash (the compiled simulator's design hash); \p Seed
/// lets callers chain hashes over several spans.  Machine memory is
/// hashed by isa/PageMemory.h instead.
constexpr uint64_t Fnv1aInit = 0xcbf29ce484222325ull;
constexpr uint64_t fnv1a64(const uint8_t *Data, size_t Len,
                           uint64_t Seed = Fnv1aInit) {
  uint64_t H = Seed;
  for (size_t I = 0; I != Len; ++I) {
    H ^= Data[I];
    H *= 0x100000001b3ull;
  }
  return H;
}

} // namespace silver

#endif // SILVER_SUPPORT_BITS_H
