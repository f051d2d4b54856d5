//===- fuzz/Fuzzer.h - Parallel differential conformance fuzzer -*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fuzzing campaign driver behind the silver-fuzz tool: a worker
/// pool pulls case indices from a shared counter, each worker
/// regenerates its case from (Seed, Index) alone (fuzz/Generator.h),
/// runs the differential oracle (fuzz/Oracle.h), shrinks any divergence
/// (fuzz/Shrink.h), and the findings are merged in case-index order.
///
/// Determinism: for a fixed seed and case count the set of findings —
/// including every shrunk reproducer — is identical for any --jobs
/// value, because cases are pure functions of their index and workers
/// share nothing but the index counter.  A wall-clock budget
/// (TimeBudgetSeconds) is the one escape hatch: it stops the campaign
/// after a prefix of the case range, so only the *processed prefix* is
/// deterministic.  CI smoke runs therefore fix MaxCases and use the
/// time budget as a safety net, not as the primary stop condition.
///
/// Safety: concurrent Executors are independent by design (the one
/// shared piece of interpreter state, isa::nullEnv(), is stateless, and
/// the circuit simulator's scratch state is thread_local).
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_FUZZ_FUZZER_H
#define SILVER_FUZZ_FUZZER_H

#include "fuzz/Corpus.h"
#include "fuzz/Shrink.h"

#include <iosfwd>

namespace silver {
namespace fuzz {

struct FuzzOptions {
  uint64_t Seed = 1;
  unsigned Jobs = 1;          ///< worker threads
  uint64_t MaxCases = 256;    ///< case indices [0, MaxCases)
  double TimeBudgetSeconds = 0; ///< 0 = no wall-clock limit
  std::vector<Profile> Profiles = {Profile::Alu, Profile::Branchy,
                                   Profile::LoadStore, Profile::Ffi,
                                   Profile::Mixed};
  OracleOptions Oracle;
  bool Shrink = true;
  ShrinkOptions Shrinker;
  /// When set, every finding's minimized reproducer is written here as
  /// fuzz-<seed>-<index>.s.
  std::string CorpusDir;
  /// Progress/diagnostic stream (null = silent).
  std::ostream *Log = nullptr;
};

/// One divergence, as found and as minimized.
struct Finding {
  CaseSpec Case;          ///< the generated case
  Divergence Diff;        ///< its divergence
  CaseSpec Shrunk;        ///< the minimized reproducer
  Divergence ShrunkDiff;  ///< the minimized case's divergence
  uint64_t ShrinkAttempts = 0;
};

/// Work done by one run over a whole campaign, for throughput
/// reporting (instructions at every level; cycles only at the clocked
/// ones).
struct LevelWork {
  Run Which;
  uint64_t Instructions = 0;
  uint64_t Cycles = 0;
};

struct FuzzReport {
  uint64_t CasesRun = 0;
  uint64_t Inconclusive = 0; ///< reference timed out; skipped
  uint64_t CaseErrors = 0;   ///< cases the oracle could not run at all
  std::vector<Finding> Findings; ///< sorted by case index
  /// Campaign wall-clock time (generation + oracle + shrinking), for
  /// cases/sec and per-level instrs/sec throughput lines.
  double WallSeconds = 0;
  /// Per-run totals across every case the oracle ran: the interpreted
  /// runs in level order, then the other backends; runs that never ran
  /// are omitted.
  std::vector<LevelWork> Work;
};

/// Runs a fuzzing campaign.  Deterministic for fixed (Seed, MaxCases)
/// at any Jobs value; see the file comment for the time-budget caveat.
FuzzReport runFuzz(const FuzzOptions &O);

/// Replays every corpus file under \p Dir through the oracle; a replay
/// "fails" when the case still diverges (or no longer parses/runs).
/// Returns the failing file names with a reason each.
struct ReplayFailure {
  std::string Path;
  std::string Reason;
};
std::vector<ReplayFailure> replayCorpus(const std::string &Dir,
                                        const OracleOptions &O,
                                        std::ostream *Log = nullptr);

} // namespace fuzz
} // namespace silver

#endif // SILVER_FUZZ_FUZZER_H
