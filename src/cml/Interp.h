//===- cml/Interp.h - MiniCake reference interpreter ------------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The big-step reference semantics of MiniCake (the paper's cakeml_sem).
/// The compiler correctness story of the reproduction is differential:
/// for any program, running the compiled machine code on Silver must
/// produce the same observable behaviour (FFI trace, stdout, stderr,
/// exit code) as this interpreter — modulo the permitted early
/// out-of-memory exit (extend_with_oom), which the interpreter never
/// takes.
///
/// The I/O primitives perform their FFI calls on an ffi::BasisFfi, the
/// oracle machine-sem consults, and make exactly the calls the compiled
/// runtime (cml/Runtime.cpp) makes: `print`/`print_err` write in chunks
/// of at most IoChunkBytes, each an array of k + 4 bytes with header
/// (k, offset 0); `read_chunk n` reads once on an array of k + 4 bytes,
/// k = n clamped to [0, IoChunkBytes], so a program that asks for more
/// sees the same short chunk at every level; `arg_count` is
/// `get_arg_count`; `arg_n` is `get_arg_length` then `get_arg`.  `exit`
/// and the traps end the run with no FFI event.
///
/// The interpreter is iterative in tail positions (proper tail calls), so
/// accumulator-style loops run in constant C++ stack space, matching the
/// compiled code's TCO.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_CML_INTERP_H
#define SILVER_CML_INTERP_H

#include "cml/Ast.h"
#include "ffi/BasisFfi.h"
#include "support/Result.h"

#include <string>
#include <vector>

namespace silver {
namespace cml {

/// Trap exit codes shared by the interpreter and the compiled runtime.
inline constexpr uint8_t TrapDivCode = 3;
inline constexpr uint8_t TrapMatchCode = 4;
inline constexpr uint8_t TrapSubscriptCode = 5;

/// Wraps a 64-bit value to MiniCake's 31-bit two's-complement integers.
inline int32_t wrap31(int64_t V) {
  uint32_t U = static_cast<uint32_t>(V) & 0x7fffffff;
  return static_cast<int32_t>((U ^ 0x40000000u) - 0x40000000u);
}

/// Observable result of running a program.
struct RunOutput {
  bool Ok = false;          ///< false: static or dynamic evaluation error
  std::string ErrorMessage; ///< when !Ok
  uint8_t ExitCode = 0;     ///< 0 unless exit/trap was taken
  uint64_t Steps = 0;       ///< evaluation steps (for benchmarks)
  /// The oracle after the run: its Trace, getStdout() and getStderr().
  ffi::BasisFfi Ffi;
};

/// Evaluates a type-checked program against the basis oracle with command
/// line \p CommandLine and standard input \p StdinData.  \p MaxSteps
/// bounds evaluation (0 = unbounded); exceeding it reports an error, not
/// a trap.
RunOutput interpretProgram(const Program &Prog,
                           const std::vector<std::string> &CommandLine,
                           const std::string &StdinData,
                           uint64_t MaxSteps = 0);

} // namespace cml
} // namespace silver

#endif // SILVER_CML_INTERP_H
