//===- cml/Opt.h - Core optimisation passes --------------------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Core-level optimisation passes for the optimising half of the paper's
/// compiler story (and the E5 ablation benchmark):
///  - constant folding (integer arithmetic/comparisons, if-on-constant,
///    string size/concat of literals, equality of literals);
///  - dead-let elimination for pure right-hand sides;
///  - inlining of non-escaping single-use lambdas (beta reduction).
/// Passes iterate to a fixpoint (bounded).
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_CML_OPT_H
#define SILVER_CML_OPT_H

#include "cml/Core.h"

namespace silver {
namespace cml {

/// Optimisation level: O0 = none, O1 = all passes.
struct OptOptions {
  bool ConstantFold = true;
  bool DeadLetElim = true;
  bool Inline = true;
  unsigned InlineSizeLimit = 48; ///< max body size for multi-use inlining

  static OptOptions none() { return {false, false, false, 0}; }
  static OptOptions all() { return {}; }
};

/// Statistics for tests and the ablation bench.
struct OptStats {
  unsigned FoldedConstants = 0;
  unsigned RemovedLets = 0;
  unsigned InlinedCalls = 0;
};

/// What optimising the code before a program left behind.  Rounds run
/// over the whole program, so a program optimised after that code gets
/// at least ChangedRounds rounds, as it would have beside it.
struct OptState {
  OptStats Stats;
  unsigned ChangedRounds = 0; ///< leading rounds that changed something
  unsigned Renames = 0;       ///< binders the inliner renamed
};

/// Runs the enabled passes to a (bounded) fixpoint over Prog.Main, which
/// follows the code \p State describes, and adds to \p State.  Resuming
/// gives what one run over both would, provided the earlier code renamed
/// nothing and is a fixpoint after its rounds: rounds rewrite a Letrec's
/// body, the later code, before its functions, and the later code never
/// names the earlier code's binders.
void optimizeCore(CoreProgram &Prog, const OptOptions &Options,
                  OptState &State);

/// Runs the enabled passes to a (bounded) fixpoint over Prog.Main.
OptStats optimizeCore(CoreProgram &Prog, const OptOptions &Options);

} // namespace cml
} // namespace silver

#endif // SILVER_CML_OPT_H
