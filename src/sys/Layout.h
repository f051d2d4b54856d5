//===- sys/Layout.h - Bare-metal memory layout (paper Fig. 2) --*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memory layout for running MiniCake programs bare-metal on Silver,
/// following the paper's Figure 2:
///
///   startup code            (application-independent)
///   descriptor + exit cells (application-independent)
///   command line            [length | contents]
///   standard input          [length | offset | contents]
///   output buffer           [id | length | contents]
///   system calls            [called id | code]
///   CakeML-usable memory    (initially zeros; heap grows up, stack down)
///   CakeML-generated code+data   (at the top of memory)
///
/// Region capacities are parameters so tests can use small images; the
/// paper's stdin bound (stdin_size, about 5 MB) is available as
/// PaperStdinSize.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_SYS_LAYOUT_H
#define SILVER_SYS_LAYOUT_H

#include "support/Bits.h"
#include "support/Result.h"

#include <string>
#include <vector>

namespace silver {
namespace sys {

/// The paper's stdin_size constant: "about 5 MB".
inline constexpr Word PaperStdinSize = 5u << 20;

/// Capacities that shape a layout.
struct LayoutParams {
  Word MemSize = 4u << 20;       ///< total memory
  Word CmdlineCap = 4096;        ///< max joined command-line bytes
  Word StdinCap = 256u << 10;    ///< max pre-filled stdin bytes
  Word OutBufCap = (64u << 10) + 16; ///< output buffer contents capacity
  Word SyscallCodeCap = 16u << 10;   ///< system-call code capacity
  Word StartupCap = 512;             ///< startup code capacity

  friend bool operator==(const LayoutParams &, const LayoutParams &) = default;
};

/// Computed region addresses.  All region bases are word-aligned.
struct MemoryLayout {
  LayoutParams Params;

  Word StartupBase = 0;     ///< startup code; initial PC
  Word DescriptorBase = 0;  ///< 8-word table of region addresses
  Word ExitFlagAddr = 0;    ///< 1 once exit was called
  Word ExitCodeAddr = 0;    ///< exit code word
  Word CmdlineBase = 0;     ///< [len][NUL-joined args]
  Word StdinBase = 0;       ///< [len][offset][bytes]
  Word OutBufBase = 0;      ///< [id][len][bytes]
  Word SyscallIdAddr = 0;   ///< last dispatched FFI index
  Word SyscallCodeBase = 0; ///< ffi_dispatch entry point
  Word HeapBase = 0;        ///< CakeML-usable memory start
  Word HeapEnd = 0;         ///< CakeML-usable memory end (= CodeBase)
  Word CodeBase = 0;        ///< program code+data

  /// Computes a layout for a program of \p ProgramSize bytes.  Fails when
  /// the regions do not fit in Params.MemSize.
  static Result<MemoryLayout> compute(const LayoutParams &Params,
                                      Word ProgramSize);

  /// Bytes of CakeML-usable memory.
  Word usableSize() const { return HeapEnd - HeapBase; }
};

/// The paper's cl_ok predicate: the command line is well-formed.  Args
/// must be NUL-free and non-empty, their joined size must fit the
/// command-line region, and the count must fit 16 bits.
Result<void> checkClOk(const std::vector<std::string> &CommandLine,
                       const LayoutParams &Params);

} // namespace sys
} // namespace silver

#endif // SILVER_SYS_LAYOUT_H
