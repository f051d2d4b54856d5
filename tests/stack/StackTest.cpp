//===- tests/stack/StackTest.cpp - end-to-end verified-stack tests -------------===//
//
// The reproduction's theorem (8) statements: for each application, the
// observable behaviour at every level of Figure 1 — including the
// generated Verilog — matches the high-level specification function.
//
//===----------------------------------------------------------------------===//

#include "stack/Apps.h"
#include "stack/Executor.h"

#include <gtest/gtest.h>

using namespace silver;
using namespace silver::stack;

namespace {

/// Compiles \p Spec and runs it once at \p L.
Result<Outcome> runAt(const RunSpec &Spec, Level L) {
  Result<Executor> Exec = Executor::create(Spec);
  if (!Exec)
    return Exec.error();
  return Exec->run(L);
}

void expectAllSoftwareLevels(RunSpec Spec, const std::string &ExpectOut,
                             uint8_t ExpectCode = 0) {
  Result<std::vector<Observed>> R =
      checkEndToEnd(Spec, {Level::Machine, Level::Isa});
  ASSERT_TRUE(R) << R.error().str();
  const Observed &Isa = (*R)[1];
  EXPECT_EQ(Isa.StdoutData, ExpectOut);
  EXPECT_EQ(Isa.ExitCode, ExpectCode);
}

} // namespace

TEST(EndToEnd, HelloAtEveryLevel) {
  RunSpec Spec;
  Spec.Source = helloSource();
  Result<std::vector<Observed>> R = checkEndToEnd(
      Spec, {Level::Machine, Level::Isa, Level::Rtl, Level::Verilog});
  ASSERT_TRUE(R) << R.error().str();
  EXPECT_EQ((*R)[0].StdoutData, "Hello, world!\n");
  // The hardware runs report clock cycles; the ISA run does not.
  EXPECT_GT((*R)[2].Cycles, (*R)[2].Instructions);
}

TEST(EndToEnd, WcMatchesSpecFunction) {
  std::string Input = randomLines(60, 3);
  RunSpec Spec;
  Spec.Source = wcSource();
  Spec.CommandLine = {"wc"};
  Spec.StdinData = Input;
  expectAllSoftwareLevels(Spec, wcSpec(Input));
}

TEST(EndToEnd, WcEdgeCases) {
  for (const char *Input : {"", " ", "  \t\n ", "one", " one two  three "}) {
    RunSpec Spec;
    Spec.Source = wcSource();
    Spec.StdinData = Input;
    Result<Outcome> R = runAt(Spec, Level::Isa);
    ASSERT_TRUE(R) << R.error().str();
    EXPECT_EQ(R->Behaviour.StdoutData, wcSpec(Input))
        << "input: '" << Input << "'";
  }
}

TEST(EndToEnd, SortMatchesSpecFunction) {
  std::string Input = randomLines(50, 9);
  RunSpec Spec;
  Spec.Source = sortSource();
  Spec.StdinData = Input;
  expectAllSoftwareLevels(Spec, sortSpec(Input));
}

TEST(EndToEnd, SortOnHardwareSmallInput) {
  std::string Input = "pear\napple\nzebra\nmango\n";
  RunSpec Spec;
  Spec.Source = sortSource();
  Spec.StdinData = Input;
  Spec.Exec.MaxSteps = 400'000'000;
  Result<Outcome> R = runAt(Spec, Level::Rtl);
  ASSERT_TRUE(R) << R.error().str();
  EXPECT_EQ(R->Behaviour.StdoutData, "apple\nmango\npear\nzebra\n");
}

TEST(EndToEnd, CatRoundTripsBinaryishData) {
  std::string Input;
  for (int I = 1; I != 256; ++I) // NUL excluded: strings are NUL-clean
    Input.push_back(static_cast<char>(I));
  RunSpec Spec;
  Spec.Source = catSource();
  Spec.StdinData = Input;
  expectAllSoftwareLevels(Spec, Input);
}

TEST(EndToEnd, ProofCheckerValidAndInvalid) {
  {
    RunSpec Spec;
    Spec.Source = proofCheckerSource();
    Spec.StdinData = sampleValidProof();
    expectAllSoftwareLevels(Spec, "VALID\n");
  }
  {
    RunSpec Spec;
    Spec.Source = proofCheckerSource();
    Spec.StdinData = sampleInvalidProof();
    expectAllSoftwareLevels(Spec, "INVALID 1\n");
  }
}

TEST(EndToEnd, ProofCheckerAgainstSpecOnMutations) {
  // Mutate the valid proof line by line; checker and spec must agree on
  // every mutation (usually INVALID, and at exactly the same line).
  std::string Valid = sampleValidProof();
  for (size_t I = 0; I < Valid.size(); I += 3) {
    std::string Mutated = Valid;
    if (Mutated[I] == '\n')
      continue;
    Mutated[I] = Mutated[I] == 'p' ? 'q' : 'p';
    RunSpec Spec;
    Spec.Source = proofCheckerSource();
    Spec.StdinData = Mutated;
    Result<Outcome> R = runAt(Spec, Level::Isa);
    ASSERT_TRUE(R) << R.error().str();
    EXPECT_EQ(R->Behaviour.StdoutData, proofSpec(Mutated))
        << "mutation at " << I;
  }
}

TEST(EndToEnd, TinCompilerMatchesSpec) {
  for (unsigned Statements : {1u, 5u, 20u}) {
    std::string Program = sampleTinProgram(Statements);
    RunSpec Spec;
    Spec.Source = tinCompilerSource();
    Spec.StdinData = Program;
    Spec.Exec.MaxSteps = 500'000'000;
    Result<Outcome> R = runAt(Spec, Level::Isa);
    ASSERT_TRUE(R) << R.error().str();
    EXPECT_EQ(R->Behaviour.StdoutData, tinSpec(Program)) << Program;
    EXPECT_EQ(R->Behaviour.ExitCode, 0);
  }
}

TEST(EndToEnd, TinCompilerRejectsBadPrograms) {
  for (const char *Bad : {"x = ;", "= 1", "print (1", "x 1", "1 = x",
                          "print 1 print 2"}) {
    RunSpec Spec;
    Spec.Source = tinCompilerSource();
    Spec.StdinData = Bad;
    Result<Outcome> R = runAt(Spec, Level::Isa);
    ASSERT_TRUE(R) << R.error().str();
    EXPECT_EQ(R->Behaviour.StdoutData, "ERROR\n") << Bad;
    EXPECT_EQ(R->Behaviour.StdoutData, tinSpec(Bad)) << Bad;
  }
}

TEST(EndToEnd, CommandLineReachesPrograms) {
  RunSpec Spec;
  Spec.Source = R"(val _ = print (join "," (arguments ())))";
  Spec.CommandLine = {"sort", "-r", "file.txt"};
  expectAllSoftwareLevels(Spec, "sort,-r,file.txt");
}

TEST(EndToEnd, PaperStdinBoundIsEnforced) {
  // |input| <= stdin_size is an assumption of theorem (5): oversized
  // input is rejected at image-build time, not silently truncated.
  RunSpec Spec;
  Spec.Source = catSource();
  Spec.StdinData.assign(Spec.Compile.Layout.StdinCap + 1, 'x');
  Result<Outcome> R = runAt(Spec, Level::Isa);
  EXPECT_FALSE(R);
}

TEST(EndToEnd, LevelsDisagreeOnlyNever) {
  // A program exercising every basis feature at once.
  RunSpec Spec;
  Spec.Source = R"(
    val input = input_all ()
    val ws = tokens is_space input
    fun fmt w = w ^ ":" ^ int_to_string (str_size w)
    val _ = print (join " " (map fmt ws))
    val _ = print_err (int_to_string (length ws))
    val _ = exit (length ws mod 7)
  )";
  Spec.StdinData = "alpha beta gamma delta";
  Result<std::vector<Observed>> R =
      checkEndToEnd(Spec, {Level::Machine, Level::Isa});
  ASSERT_TRUE(R) << R.error().str();
  EXPECT_EQ((*R)[1].StdoutData, "alpha:5 beta:4 gamma:5 delta:5");
  EXPECT_EQ((*R)[1].StderrData, "4");
  EXPECT_EQ((*R)[1].ExitCode, 4);
}

TEST(EndToEnd, CheckRejectsARunThatExhaustsItsBudget) {
  // 100 instructions do not get hello through startup: the first level
  // times out, and the check names it instead of comparing a prefix.
  RunSpec Spec;
  Spec.Source = helloSource();
  Spec.Exec.MaxSteps = 100;
  Result<std::vector<Observed>> R =
      checkEndToEnd(Spec, {Level::Machine, Level::Isa});
  ASSERT_FALSE(R);
  EXPECT_NE(R.error().str().find("machine-sem"), std::string::npos)
      << R.error().str();
  EXPECT_NE(R.error().str().find(
                "did not terminate within the step budget"),
            std::string::npos)
      << R.error().str();
}

TEST(EndToEnd, InstructionCountsAreDeterministic) {
  RunSpec Spec;
  Spec.Source = helloSource();
  Result<Outcome> A = runAt(Spec, Level::Isa);
  Result<Outcome> B = runAt(Spec, Level::Isa);
  ASSERT_TRUE(A);
  ASSERT_TRUE(B);
  EXPECT_EQ(A->Behaviour.Instructions, B->Behaviour.Instructions);
}
