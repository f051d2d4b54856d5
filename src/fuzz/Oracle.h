//===- fuzz/Oracle.h - Cross-level differential oracle ---------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential oracle of the conformance fuzzer: runs one generated
/// case (fuzz/Generator.h) at several Figure-1 levels through
/// stack::Executor and decides whether they agree.  Agreement means
///
///  - the same run status (completed vs budget timeout vs error),
///  - the same observable behaviour (stdout, stderr, exit code,
///    termination, and the FFI request trace: stack::compareBehaviour
///    with no OOM licence),
///  - the same retire stream (pc, opcode) — Isa vs Rtl/Verilog, and
///  - the same final architectural state (stack::StateDigest).
///
/// Two systematic asymmetries of the stack are normalised before
/// comparing (both are documented invariants, not bugs):
///
///  1. The halt self-jump.  isa::run stops *at* the halt instruction;
///     the hardware levels retire it once more, which appends one retire
///     event and clobbers the link register and the ALU flags.  The
///     oracle trims that final retire and masks r63/carry/overflow —
///     the generator's epilogue materialises the flags into r43/r44
///     first, so a real flag divergence is still caught through the
///     register file.
///
///  2. The FFI interference oracle.  The Machine level replaces each
///     run of installed syscall code with one oracle step that zeroes
///     the clobbered registers (machine/MachineSem.cpp), so for cases
///     that make FFI calls the Machine digest is compared with the
///     syscall clobber set masked, and Machine retire streams are never
///     compared against the ISA's.  (The post-call *flags* are
///     level-dependent too; the generator re-normalises them after
///     every call, so they stay unmasked here.)
///
/// Protocol: the Isa level runs first with the full budget.  If it
/// times out the case is Inconclusive (nothing to compare against, and
/// it keeps runaway loops away from the slow cycle-accurate levels);
/// otherwise every other requested level runs with a budget just above
/// the ISA instruction count, so a diverging level that runs off into a
/// loop is cut short cheaply and reported as a status mismatch.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_FUZZ_ORACLE_H
#define SILVER_FUZZ_ORACLE_H

#include "fuzz/Generator.h"
#include "stack/Executor.h"

#include <string>
#include <vector>

namespace silver {
namespace fuzz {

/// What one level did with the case.
struct LevelRun {
  stack::Level L = stack::Level::Isa;
  bool Jit = false; ///< ran at Isa with the JIT backend (Jit-vs-Isa level)
  /// Ran at Verilog with the compiled simulator backend (the
  /// Compiled-vs-Verilog differential level).
  bool Compiled = false;
  bool Ran = false;
  bool Errored = false; ///< the executor reported an error (fault, ...)
  std::string ErrorMessage;
  stack::Outcome Out; ///< status, behaviour and FFI trace
  stack::StateDigest Digest;
  std::vector<std::pair<Word, uint8_t>> Retires; ///< (pc, opcode)
};

/// How two levels disagreed.
enum class DiffKind : uint8_t {
  None,         ///< all levels agree
  Inconclusive, ///< the reference level timed out; nothing compared
  Status,       ///< completed vs timeout vs error
  Behaviour,    ///< stdout/stderr/exit code/termination/FFI trace differ
  Retire,       ///< first retire-stream mismatch
  State,        ///< final digest mismatch
};
const char *diffKindName(DiffKind K);

/// A divergence between the reference level and another level.
struct Divergence {
  DiffKind Kind = DiffKind::None;
  stack::Level Ref = stack::Level::Isa;
  stack::Level Other = stack::Level::Isa;
  bool OtherJit = false;  ///< Other ran at Isa with the JIT backend
  /// Other ran at Verilog with the compiled simulator backend (the
  /// reference side is then the interpreted Verilog run).
  bool OtherCompiled = false;
  std::string Detail;     ///< human-readable description
  uint64_t RetireAt = 0;  ///< Retire: first differing index

  bool found() const {
    return Kind != DiffKind::None && Kind != DiffKind::Inconclusive;
  }
  /// Stable identity used by the shrinker to reject candidates that
  /// trade one bug for another: the kind plus the level pair.
  std::string fingerprint() const;
};

struct OracleOptions {
  /// Levels to compare.  Isa always runs (it is the reference); listing
  /// it here is allowed and redundant.  stack::Level::Spec is invalid —
  /// generated cases are machine code with no source program.
  std::vector<stack::Level> Levels = {stack::Level::Machine,
                                      stack::Level::Rtl};
  uint64_t MaxSteps = 100'000; ///< ISA instruction budget
  /// Also run the case at Level::Isa with the JIT backend
  /// (stack::BackendKind::Jit) and compare it against the interpreter
  /// exactly — the Jit-vs-Isa differential level.  On hosts without
  /// native JIT support the run degrades to the interpreter, so the
  /// comparison is trivially green rather than an error.
  bool CompareJit = false;
  /// Also run the case at Level::Verilog with the compiled simulator
  /// backend (stack::HdlBackendKind::Compiled) and compare it against
  /// the interpreted Verilog run exactly — status, behaviour including
  /// instruction and cycle counts, the full retire stream, and the
  /// digest, with no masking: both sides are the same hardware
  /// semantics.  Adds the interpreted Verilog run if Levels does not
  /// already request it.  The core's compiled simulator is linked into
  /// the build, so the comparison needs no host C++ compiler at run
  /// time and always runs the compiled code.
  bool CompareCompiled = false;
};

struct OracleResult {
  Divergence Diff;
  std::vector<LevelRun> Runs; ///< reference first, then OracleOptions order
  uint64_t IsaInstructions = 0;
};

/// Assembles \p C into a ready-to-run Prepared image: two-pass assembly
/// (once at 0 for the size, once at the computed CodeBase) with
/// "ffi_dispatch" bound to the installed dispatcher.
Result<stack::Prepared> prepareCase(const CaseSpec &C);

/// Runs \p C at the requested levels and compares.  The error return is
/// for broken cases (assembly failure); level-side errors are part of
/// the comparison, not errors of runCase.
Result<OracleResult> runCase(const CaseSpec &C, const OracleOptions &O);

} // namespace fuzz
} // namespace silver

#endif // SILVER_FUZZ_ORACLE_H
