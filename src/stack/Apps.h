//===- stack/Apps.h - The paper's demonstration applications ----*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MiniCake sources for the applications the paper runs on Silver (§1,
/// §7): word count (wc), sort, a proof checker (standing in for the
/// OpenTheory checker), hello, cat — and the Tin compiler, a small
/// compiler written in MiniCake that reproduces the shape of the
/// "compiler running on the verified processor" experiment (§7: CakeML
/// compiling hello-world on Silver vs on an Intel machine).
///
/// Specification functions (the paper's wc_spec/sort_spec/...; §2.1) are
/// provided as C++ reference implementations so tests and benches can
/// state end-to-end conformance exactly as theorem (8) does.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_STACK_APPS_H
#define SILVER_STACK_APPS_H

#include <string>
#include <vector>

namespace silver {
namespace stack {

/// MiniCake sources.
const char *helloSource();
const char *catSource();   ///< copies stdin to stdout
const char *wcSource();    ///< prints |tokens is_space input|
const char *sortSource();  ///< sorts the lines of stdin
const char *proofCheckerSource(); ///< Hilbert-style propositional checker
const char *tinCompilerSource();  ///< the bootstrapped Tin compiler

/// The source of the built-in app \p Name — hello, cat, wc, sort, proof
/// or tin, the names the CLIs' --builtin= takes — or null.
const char *builtinSource(const std::string &Name);

/// Specification functions (higher-order-logic specs, transcribed).
/// wc_spec input = number of maximal nonspace runs in input.
std::string wcSpec(const std::string &Input);
/// sort_spec input = the lines of input, sorted, each with a newline.
std::string sortSpec(const std::string &Input);
/// cat_spec input = input.
std::string catSpec(const std::string &Input);
/// proof_spec input = "VALID\n" or "INVALID <line>\n" per the checker's
/// rules (axiom schemas K and S, modus ponens).
std::string proofSpec(const std::string &Input);
/// tin_spec source = the stack-machine assembly the Tin compiler emits,
/// or "error: ..." diagnostics.
std::string tinSpec(const std::string &Source);

/// A sample valid proof and an invalid one (for tests and benches).
std::string sampleValidProof();
std::string sampleInvalidProof();

/// A sample Tin program of \p Statements statements (workload
/// generator for the bootstrap experiment).
std::string sampleTinProgram(unsigned Statements);

/// Deterministic line-oriented text (workload generator for wc/sort).
std::string randomLines(unsigned LineCount, unsigned Seed);

} // namespace stack
} // namespace silver

#endif // SILVER_STACK_APPS_H
