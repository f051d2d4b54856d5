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

bool isHardware(Level L) { return L == Level::Rtl || L == Level::Verilog; }

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

TEST(EndToEnd, SpecLevelRejectsIllTypedPrograms) {
  // The reference interpreter would print the integer; the Spec level
  // type-checks first, as the compiler does.
  RunSpec Spec;
  Spec.Source = "val x = 1\nval _ = print (1)\n";
  Result<Outcome> R = runSpecLevel(Spec);
  ASSERT_FALSE(R);
  EXPECT_EQ(R.error().str().rfind("type error: 2:15: ", 0), 0u)
      << R.error().str();
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

TEST(EndToEnd, OomRunMustKeepAPrefixOfEveryStream) {
  // extend_with_oom licenses an early OOM exit after a prefix of all the
  // output: stdout, stderr and the FFI trace alike.
  auto Write = [](uint8_t Byte) {
    return ffi::IoEvent{unsigned(ffi::FfiIndex::Write),
                        {0, 0, 0, 0, 0, 0, 0, 1},
                        5,
                        {0, 1, 0, 0, Byte}};
  };
  Outcome Spec;
  Spec.Behaviour.StdoutData = "out";
  Spec.Behaviour.StderrData = "err";
  Spec.Trace = {Write('o'), Write('u')};
  Outcome Oom;
  Oom.Behaviour.ExitCode = machine::OomExitCode;
  Oom.Behaviour.StdoutData = "ou";
  Oom.Behaviour.StderrData = "e";
  Oom.Trace = {Write('o')};
  EXPECT_TRUE(checkAgainstSpec(Level::Isa, Oom, Spec));

  Oom.Behaviour.StderrData = "oops";
  Result<void> R = checkAgainstSpec(Level::Isa, Oom, Spec);
  ASSERT_FALSE(R);
  EXPECT_NE(R.error().str().find("stderr"), std::string::npos)
      << R.error().str();

  Oom.Behaviour.StderrData = "";
  Oom.Trace = {Write('u')};
  R = checkAgainstSpec(Level::Isa, Oom, Spec);
  ASSERT_FALSE(R);
  EXPECT_NE(R.error().str().find("FFI trace differs at event 0"),
            std::string::npos)
      << R.error().str();
  Oom.Trace = {Write('o'), Write('u'), Write('t')};
  EXPECT_FALSE(checkAgainstSpec(Level::Isa, Oom, Spec));

  Oom.Trace.clear();
  Oom.Behaviour.StdoutData = "in";
  EXPECT_FALSE(checkAgainstSpec(Level::Isa, Oom, Spec));
  // A spec that itself exits with the OOM code is matched exactly.
  Spec.Behaviour.ExitCode = machine::OomExitCode;
  Oom.Behaviour.StdoutData = "ou";
  EXPECT_FALSE(checkAgainstSpec(Level::Isa, Oom, Spec));
}

TEST(EndToEnd, TraceCatchesAReadLengthThatStdoutMisses) {
  // Stands in for a compiler that emits the wrong read length: two cat
  // programs that differ only in the chunk size print the same stdout,
  // and only the FFI trace tells them apart.
  auto Cat = [](int Chunk) {
    RunSpec Spec;
    Spec.Source = "fun copy u = let val s = read_chunk " +
                  std::to_string(Chunk) +
                  " in if str_size s = 0 then () "
                  "else let val _ = print s in copy () end end\n"
                  "val _ = copy ()\n";
    Spec.StdinData = randomLines(12, 3);
    return Spec;
  };
  RunSpec Hundred = Cat(100), NinetyNine = Cat(99);
  Result<Outcome> SpecA = runAt(Hundred, Level::Spec);
  Result<Outcome> SpecB = runAt(NinetyNine, Level::Spec);
  Result<Outcome> MachA = runAt(Hundred, Level::Machine);
  Result<Outcome> MachB = runAt(NinetyNine, Level::Machine);
  ASSERT_TRUE(SpecA && SpecB && MachA && MachB);
  EXPECT_EQ(MachA->Behaviour.StdoutData, Hundred.StdinData);
  EXPECT_EQ(MachA->Behaviour.StdoutData, SpecB->Behaviour.StdoutData);

  EXPECT_TRUE(checkAgainstSpec(Level::Machine, *MachA, *SpecA));
  EXPECT_TRUE(checkAgainstSpec(Level::Machine, *MachB, *SpecB));
  Result<void> R = checkAgainstSpec(Level::Machine, *MachA, *SpecB);
  ASSERT_FALSE(R);
  EXPECT_NE(R.error().str().find("FFI trace differs at event 0: read("),
            std::string::npos)
      << R.error().str();
  EXPECT_FALSE(checkAgainstSpec(Level::Machine, *MachB, *SpecA));
}

TEST(EndToEnd, EveryLevelMakesTheSameFfiCalls) {
  // The trace-agreement check: every app, on small inputs, makes the same
  // FFI requests at Spec, Machine and Isa on both backends; the hardware
  // levels, slower, run the cyclesim programs (hello, wc-5, tin-2).  An
  // echo program adds the argument calls, stderr and an exit code.
  std::string Wc5 = randomLines(20, 1);
  Wc5.resize(95);
  Wc5.push_back('\n');
  struct App {
    const char *Name;
    std::string Source;
    std::string Stdin;
    bool Hardware;
  };
  const App Apps[] = {
      {"hello", helloSource(), "", true},
      {"cat", catSource(), "a\nbb\n", false},
      {"wc", wcSource(), Wc5, true},
      {"sort", sortSource(), randomLines(8, 2), false},
      {"proof", proofCheckerSource(), sampleValidProof(), false},
      {"tin", tinCompilerSource(), sampleTinProgram(2), true},
      {"echo",
       "val _ = print (join \" \" (arguments ()))\n"
       "val _ = print_err \"done\"\nval _ = exit 3\n",
       "", false}};
  struct Cell {
    Level L;
    BackendKind Backend;
    HdlBackendKind Hdl;
    const char *Name;
  };
  const Cell Cells[] = {
      {Level::Machine, BackendKind::Interp, HdlBackendKind::Interp, "machine"},
      {Level::Isa, BackendKind::Interp, HdlBackendKind::Interp, "isa"},
      {Level::Isa, BackendKind::Jit, HdlBackendKind::Interp, "jit"},
      {Level::Rtl, BackendKind::Interp, HdlBackendKind::Interp, "rtl"},
      {Level::Verilog, BackendKind::Interp, HdlBackendKind::Interp, "verilog"},
      {Level::Verilog, BackendKind::Interp, HdlBackendKind::Compiled,
       "verilog-compiled"}};
  for (const App &A : Apps) {
    RunSpec Spec;
    Spec.Source = A.Source;
    Spec.CommandLine = {A.Name, "-x", "arg"};
    Spec.StdinData = A.Stdin;
    Result<Prepared> P = prepare(Spec);
    ASSERT_TRUE(P) << A.Name << ": " << P.error().str();
    Result<Outcome> Ref = Executor::fromPrepared(Spec, *P).run(Level::Spec);
    ASSERT_TRUE(Ref) << A.Name << ": " << Ref.error().str();
    EXPECT_FALSE(Ref->Trace.empty()) << A.Name;
    for (const Cell &C : Cells) {
      if (isHardware(C.L) && !A.Hardware)
        continue;
      SCOPED_TRACE(std::string(A.Name) + " at " + C.Name);
      RunSpec At = Spec;
      At.Exec.Backend = C.Backend;
      At.Exec.Hdl = C.Hdl;
      Result<Outcome> Out = Executor::fromPrepared(At, *P).run(C.L);
      ASSERT_TRUE(Out) << Out.error().str();
      EXPECT_EQ(Out->Status, RunStatus::Completed);
      EXPECT_TRUE(Out->Trace == Ref->Trace);
      Result<void> Same = checkAgainstSpec(C.L, *Out, *Ref);
      EXPECT_TRUE(Same) << Same.error().str();
    }
  }
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
