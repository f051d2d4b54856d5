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
/// comparing an interpreted run against the Isa run (both are
/// documented invariants, not bugs):
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
/// otherwise every other requested run gets a budget just above
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

/// One differential run: a level and the backends that step it — the
/// ISA backend at Isa, the simulator backend at Verilog.  A plain
/// stack::Level converts to its interpreted run.
struct Run {
  stack::Level L;
  stack::BackendKind Backend;
  stack::HdlBackendKind Hdl;

  constexpr Run(stack::Level L = stack::Level::Isa,
                stack::BackendKind Backend = stack::BackendKind::Interp,
                stack::HdlBackendKind Hdl = stack::HdlBackendKind::Interp)
      : L(L), Backend(Backend), Hdl(Hdl) {}
  bool operator==(const Run &) const = default;

  /// Both backends are the interpreters.
  bool interp() const {
    return Backend == stack::BackendKind::Interp &&
           Hdl == stack::HdlBackendKind::Interp;
  }
};

/// The printed name: stack::levelName for an interpreted run, "jit" for
/// the Isa level on the JIT backend, "verilog-compiled" for the Verilog
/// level on the compiled simulator.
const char *runName(const Run &R);

/// Parses a run as the CLIs spell it: machine, isa, jit, rtl, verilog,
/// verilog-compiled.  Returns false when \p Name is unknown.
bool parseRun(const std::string &Name, Run &Out);

/// What one run did with the case.
struct LevelRun {
  Run Which;
  bool Errored = false; ///< the executor reported an error (fault, ...)
  std::string ErrorMessage;
  stack::Outcome Out; ///< status, behaviour and FFI trace
  stack::StateDigest Digest;
  /// (pc, opcode).  Empty for the jit run, which runs unobserved: retire
  /// events would force every block back to the interpreter.
  std::vector<std::pair<Word, uint8_t>> Retires;
};

/// How two runs disagreed.
enum class DiffKind : uint8_t {
  None,         ///< all runs agree
  Inconclusive, ///< the reference run timed out; nothing compared
  Status,       ///< completed vs timeout vs error
  Behaviour,    ///< stdout/stderr/exit code/termination/FFI trace differ
  Retire,       ///< first retire-stream mismatch
  State,        ///< final digest mismatch
};
const char *diffKindName(DiffKind K);

/// A divergence between a run and its reference run.
struct Divergence {
  DiffKind Kind = DiffKind::None;
  Run Ref;
  Run Other;
  std::string Detail;     ///< human-readable description
  uint64_t RetireAt = 0;  ///< Retire: first differing index

  bool found() const {
    return Kind != DiffKind::None && Kind != DiffKind::Inconclusive;
  }
  /// Stable identity used by the shrinker to reject candidates that
  /// trade one bug for another: the kind plus the two run names.
  std::string fingerprint() const;
};

struct OracleOptions {
  /// Runs to compare.  The Isa interpreter run always runs first (it is
  /// the reference); listing it is allowed and redundant.  Each run's
  /// reference is picked by one rule:
  ///
  ///  - a run on another backend (jit, verilog-compiled) is compared
  ///    exactly against the interpreted run at its level — status,
  ///    behaviour with instruction and cycle counts, the whole retire
  ///    stream at the hardware levels, and the digest, nothing masked —
  ///    which the oracle adds when it is not listed;
  ///  - every interpreted run is compared against the Isa run, with the
  ///    two masked asymmetries of the file comment.
  ///
  /// The Spec level is invalid — generated cases are machine code with
  /// no source program.  On hosts without native JIT support the jit run
  /// degrades to the interpreter, so its comparison is trivially green.
  std::vector<Run> Levels = {stack::Level::Machine, stack::Level::Rtl};
  uint64_t MaxSteps = 100'000; ///< ISA instruction budget
};

struct OracleResult {
  Divergence Diff;
  /// The Isa reference first, then OracleOptions order (each added
  /// interpreted reference just before the run compared against it).
  std::vector<LevelRun> Runs;
  uint64_t IsaInstructions = 0;
};

/// Assembles \p C into a ready-to-run Prepared image: two-pass assembly
/// (once at 0 for the size, once at the computed CodeBase) with
/// "ffi_dispatch" bound to the installed dispatcher.
Result<stack::Prepared> prepareCase(const CaseSpec &C);

/// Runs \p C at the requested runs and compares.  The error return is
/// for broken cases (assembly failure); level-side errors are part of
/// the comparison, not errors of runCase.
Result<OracleResult> runCase(const CaseSpec &C, const OracleOptions &O);

} // namespace fuzz
} // namespace silver

#endif // SILVER_FUZZ_ORACLE_H
