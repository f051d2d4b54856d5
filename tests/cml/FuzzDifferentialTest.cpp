//===- tests/cml/FuzzDifferentialTest.cpp - random-program differential --------===//
//
// Property-based compiler correctness: generates random well-typed
// MiniCake programs and checks that the compiled code (under machine_sem
// and the Silver ISA with real system calls) produces exactly the
// observable behaviour of the reference interpreter — the statement of
// theorem (2), quantified over a generated program space rather than a
// hand-picked corpus.
//
// The generator is tests/cml/ProgramGen.h.
//
//===----------------------------------------------------------------------===//

#include "ProgramGen.h"
#include "stack/Stack.h"

#include <gtest/gtest.h>

using namespace silver;
using namespace silver::stack;
using silver::test::ProgramGen;

namespace {

class FuzzDifferential : public ::testing::TestWithParam<unsigned> {};

TEST_P(FuzzDifferential, CompiledMatchesInterpreted) {
  // Several programs per seed to widen coverage cheaply.
  for (unsigned Sub = 0; Sub != 3; ++Sub) {
    ProgramGen Gen(GetParam() * 1000003ull + Sub * 7919ull + 5);
    std::string Src = Gen.program();

    RunSpec Spec;
    Spec.Source = Src;
    Spec.Exec.MaxSteps = 100'000'000;
    Result<std::vector<Observed>> R =
        checkEndToEnd(Spec, {Level::Machine, Level::Isa});
    EXPECT_TRUE(R) << "seed " << GetParam() << "." << Sub << ": "
                   << (R ? "" : R.error().str()) << "\nprogram:\n"
                   << Src;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FuzzDifferential,
                         ::testing::Range(0u, 16u));

TEST_P(FuzzDifferential, OptimisationPreservesBehaviour) {
  // O0 and O1 builds of the same random program must agree with the
  // interpreter (and hence with each other).
  ProgramGen Gen(GetParam() * 424243ull + 11);
  std::string Src = Gen.program();
  for (bool Optimised : {false, true}) {
    RunSpec Spec;
    Spec.Source = Src;
    Spec.Compile.Opt =
        Optimised ? cml::OptOptions::all() : cml::OptOptions::none();
    Spec.Exec.MaxSteps = 100'000'000;
    Result<std::vector<Observed>> R = checkEndToEnd(Spec, {Level::Isa});
    EXPECT_TRUE(R) << "seed " << GetParam() << " O" << Optimised << ": "
                   << (R ? "" : R.error().str()) << "\nprogram:\n"
                   << Src;
  }
}

} // namespace
