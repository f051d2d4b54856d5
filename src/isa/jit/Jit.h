//===- isa/jit/Jit.h - Baseline template JIT for Silver code ---*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The baseline JIT execution tier (DESIGN.md §13): hot basic blocks of
/// Silver machine code are compiled, copy-and-patch style, to host
/// x86-64 and executed natively; everything else — cold code, blocks the
/// compiler refuses, FFI/oracle boundaries, faults, budget tails — runs
/// on the interpreter.  The backend has no run loop of its own: it is a
/// block hook (isa::BlockHook) in the one predecoded loop of
/// isa/Interp.cpp, which enters it before each instruction it would
/// interpret.  The trusted artifact stays the interpreter: the JIT is
/// validated differentially (the silver-fuzz jit run grinds it against
/// isa::Interp on every campaign), never trusted.
///
/// Correctness invariants the backend maintains:
///
///  - Bit-exactness.  Compiled templates mirror isa/Interp.cpp's
///    handlers per instruction, including the flag semantics of
///    Add/AddCarry/Sub (and the SILVER_FAULT_INJECTION carry inversion,
///    re-read from the global on every entry) and the exact operand
///    evaluation order of Jump's link write.
///  - In-order commit.  The memory-resident Silver register file is
///    fully updated between instructions, so every side exit lands on an
///    exact interpreter-resumable state; an instruction that may fault
///    (loads, stores) side-exits *before* any effect and the run loop
///    executes it next.
///  - Exact step accounting.  The run loop owns the budget, the stop PC,
///    halts and faults, and enters a block only when the remaining
///    budget covers it; the block charges its length at entry and
///    refunds the unexecuted tail on a side exit.
///  - Visits.  One per instruction the loop would interpret at a valid,
///    decodable PC other than the halt self-jump, except the instruction
///    a block deopted at after committing some of its own.
///  - Store guard.  The guard is the PageCode bit of the state's
///    page-state table (MachineState::PageFlags): the decode cache sets
///    it on every page it fills a slot of, whoever asked, and the
///    backend sets it on a compiled block's source pages.  A native
///    store into a code page side-exits and the loop interprets it,
///    which drops the decoded slots and, through BlockHook::stored, the
///    compiled blocks it overlaps — self-modifying code (the corpus's
///    selfmod-0.s) deoptimizes and re-compiles.  A native store that
///    passes marks its page PageWritten with one byte store, so
///    incremental StateDigests see JIT writes.
///  - External invalidation.  ExecBackend::invalidate (the machine-sem
///    FFI interference oracle, tests, image patching) drops decoded
///    slots and compiled blocks covering the range.
///
/// Blocks chain directly block-to-block: a terminator whose target is a
/// compiled block is patched to jump straight to it (the target's entry
/// re-checks the budget), so hot loops never return to the run loop.  In
/// a run with a stop PC, the stop PC is a compile-time guard: no block
/// is compiled at or across it and no chain targets it, so the boundary
/// is always observed by the run loop.
///
/// Code buffers follow a W^X discipline: pages are writable during
/// emission and patching, executable otherwise, never both.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_ISA_JIT_JIT_H
#define SILVER_ISA_JIT_JIT_H

#include "isa/ExecBackend.h"

#include <array>
#include <memory>

namespace silver {
namespace isa {
namespace jit {

/// Whether this host can execute translated Silver code.  False on
/// non-x86-64 architectures and when executable memory cannot be
/// mapped; the backend then degrades to pure interpretation (and the
/// stack layer reports the degradation as a diagnostic, not an error).
bool hostSupported();

/// Upper bound on instructions per compiled block.  A straight-line run
/// that does not reach a terminator within this many instructions is
/// *refused* (reason "block-too-long") rather than split: the entry
/// budget check retires a whole block up front, and an unbounded block
/// would make the worst-case budget overshoot/refund window unbounded
/// too.  Refused blocks stay on the interpreter and are counted in
/// JitStats::Refused.
inline constexpr unsigned MaxBlockInstrs = 64;
static_assert(MaxBlockInstrs * 4 <= PageSize, "a block spans two pages");

/// Why the compiler refused a block (the bailout taxonomy, §13).
enum class RefuseReason : uint8_t {
  None,            ///< not refused
  BlockTooLong,    ///< no terminator within MaxBlockInstrs
  EmptyBlock,      ///< the entry instruction itself cannot be compiled
  StopPcGuard,     ///< the block starts at the active stop PC
  HostUnsupported, ///< no native execution on this host
  ArenaTooSmall,   ///< the block does not fit in an emptied code arena
};
inline constexpr size_t NumRefuseReasons =
    static_cast<size_t>(RefuseReason::ArenaTooSmall) + 1;

/// The stable string identifier (e.g. "block-too-long").
const char *refuseReasonId(RefuseReason R);

/// How translated code returned to the run loop.
enum class ExitKind : uint8_t {
  /// At a block end with a constant next PC: an unpatched chain slot,
  /// the edge before an instruction the JIT never translates, or an
  /// invalidated block's bounce.
  Chain,
  /// Before an instruction that may fault or writes a code page; the
  /// run loop interprets that instruction.
  Deopt,
  /// A chained block entry found the budget smaller than the block.
  Budget,
  /// A jump whose target is computed from a register (returns, closure
  /// calls): the run loop goes on at the target.
  Computed,
};
inline constexpr size_t NumExitKinds =
    static_cast<size_t>(ExitKind::Computed) + 1;

/// The stable string identifier (e.g. "computed").
const char *exitKindId(ExitKind K);

struct JitOptions {
  /// Visits of a cold block entry by the run loop before it is compiled.
  uint32_t HotThreshold = 16;
};

/// What the backend did.  Every count is a deterministic function of the
/// program, its input, the options and the run's budgets and stop PC.
struct JitStats {
  uint64_t BlocksCompiled = 0;
  /// Refused blocks, indexed by RefuseReason.
  std::array<uint64_t, NumRefuseReasons> Refused{};
  uint64_t BlockInvalidations = 0;
  uint64_t ArenaFlushes = 0;
  /// Returns from native code to the run loop, indexed by ExitKind.
  std::array<uint64_t, NumExitKinds> Exits{};
  /// Instructions the run loop interpreted: the steps of every run minus
  /// the ones compiled blocks ran natively.
  uint64_t Interpreted = 0;
};

/// Creates the JIT backend.  Always succeeds; on hosts without native
/// support the returned backend interprets everything (hostSupported()
/// tells callers whether to surface a degradation diagnostic).
std::unique_ptr<ExecBackend> makeJitBackend(const JitOptions &Opts = {});

/// The statistics of a backend created by makeJitBackend; null for
/// other backends.
const JitStats *backendStats(const ExecBackend &Backend);

} // namespace jit
} // namespace isa
} // namespace silver

#endif // SILVER_ISA_JIT_JIT_H
