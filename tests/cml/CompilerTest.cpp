//===- tests/cml/CompilerTest.cpp - compiler correctness (theorem (2)) ---------===//
//
// The reproduction's compiler-correctness statement is differential: for
// every program in the corpus, machine code running on Silver produces
// the observable behaviour of the reference semantics — and may instead
// exit early with the out-of-memory code after a prefix of the output
// (extend_with_oom).
//
//===----------------------------------------------------------------------===//

#include "ProgramGen.h"
#include "asm/Assembler.h"
#include "cml/CodeGen.h"
#include "cml/Flat.h"
#include "cml/Infer.h"
#include "cml/Lower.h"
#include "cml/Parser.h"
#include "cml/Runtime.h"
#include "stack/Apps.h"
#include "stack/Executor.h"

#include <gtest/gtest.h>

using namespace silver;
using namespace silver::stack;

namespace {

/// Compiles \p Spec and runs it once at the Isa level.
Result<Outcome> runIsa(const RunSpec &Spec) {
  Result<Executor> Exec = Executor::create(Spec);
  if (!Exec)
    return Exec.error();
  return Exec->run(Level::Isa);
}

struct CorpusEntry {
  const char *Name;
  const char *Source;
  const char *Stdin;
};

const CorpusEntry Corpus[] = {
    {"arith", R"(val _ = print (int_to_string (1 + 2 * 3 - 4 div 2)))", ""},
    {"negdiv",
     R"(val _ = print (int_to_string ((0-17) div 5));
        val _ = print (int_to_string ((0-17) mod 5)))",
     ""},
    {"wrap",
     R"(val _ = print (int_to_string (1073741823 + 2)))", ""},
    {"compare",
     R"(val _ = print (if 3 < 4 andalso 4 <= 4 andalso 5 > 4
                          andalso 4 >= 4 andalso 3 <> 4
                       then "y" else "n"))",
     ""},
    {"closure",
     R"(fun adder n = fn x => x + n
        val add3 = adder 3
        val _ = print (int_to_string (add3 4 + adder 1 2)))",
     ""},
    {"mutual",
     R"(fun even n = if n = 0 then true else odd (n - 1)
        and odd n = if n = 0 then false else even (n - 1)
        val _ = print (if even 10 andalso odd 7 then "y" else "n"))",
     ""},
    {"fib",
     R"(fun fib n = if n < 2 then n else fib (n - 1) + fib (n - 2)
        val _ = print (int_to_string (fib 15)))",
     ""},
    {"tailloop",
     R"(fun loop i acc = if i = 0 then acc else loop (i - 1) (acc + i)
        val _ = print (int_to_string (loop 2000 0)))",
     ""},
    {"listops",
     R"(val l = map (fn x => x * x) [1,2,3,4,5]
        val _ = print (int_to_string (foldl (fn a => fn b => a + b) 0
                        (filter (fn x => x mod 2 = 1) l))))",
     ""},
    {"strings",
     R"(val s = "hello" ^ " " ^ "world"
        val _ = print (substring s 6 5)
        val _ = print (int_to_string (str_size s))
        val _ = print (implode (rev (explode "abc"))))",
     ""},
    {"polyeq",
     R"(val _ = print (if [(1, "a"), (2, "b")] = [(1, "a"), (2, "b")]
                       then "eq" else "ne")
        val _ = print (if ["x"] = ["y"] then "eq" else "ne"))",
     ""},
    {"patterns",
     R"(fun classify l =
          case l of
            [] => "empty"
          | [x] => "one:" ^ int_to_string x
          | 7 :: _ => "seven"
          | a :: b :: _ => int_to_string (a + b)
        val _ = print (classify [])
        val _ = print (classify [3])
        val _ = print (classify [7, 1])
        val _ = print (classify [4, 5, 6]))",
     ""},
    {"pairs",
     R"(fun swap p = case p of (a, b) => (b, a)
        val p = swap (1, "x")
        val _ = print (fst p)
        val _ = print (int_to_string (snd p)))",
     ""},
    {"case_str",
     R"(fun kind s = case s of "add" => 1 | "sub" => 2 | _ => 0
        val _ = print (int_to_string (kind "add" * 100 +
                                      kind "sub" * 10 + kind "?")))",
     ""},
    {"stdin",
     R"(val s = input_all ()
        val _ = print (int_to_string (str_size s))
        val _ = print s)",
     "some input\nwith two lines\n"},
    {"args",
     R"(val _ = print (join " " (arguments ()))
        val _ = print (int_to_string (arg_count ())))",
     ""},
    {"stderr",
     R"(val _ = print "to stdout"
        val _ = print_err "to stderr")",
     ""},
    {"exitcode", R"(val _ = print "x" val _ = exit 5)", ""},
    {"deep_nontail",
     R"(fun sum l = case l of [] => 0 | h :: t => h + sum t
        fun iota n = if n = 0 then [] else n :: iota (n - 1)
        val _ = print (int_to_string (sum (iota 300))))",
     ""},
    {"shadow",
     R"(val x = 1
        val x = x + 1
        fun f x = x * 2
        val _ = print (int_to_string (f x)))",
     ""},
};

} // namespace

class CorpusVsSpec
    : public ::testing::TestWithParam<std::tuple<size_t, bool>> {};

TEST_P(CorpusVsSpec, CompiledMatchesInterpreter) {
  const CorpusEntry &E = Corpus[std::get<0>(GetParam())];
  bool Optimised = std::get<1>(GetParam());

  RunSpec Spec;
  Spec.Source = E.Source;
  Spec.CommandLine = {"prog", "alpha", "beta"};
  Spec.StdinData = E.Stdin;
  Spec.Compile.Opt =
      Optimised ? cml::OptOptions::all() : cml::OptOptions::none();
  Spec.Exec.MaxSteps = 200'000'000;

  Result<std::vector<Observed>> R =
      checkEndToEnd(Spec, {Level::Machine, Level::Isa});
  EXPECT_TRUE(R) << E.Name << ": " << (R ? "" : R.error().str());
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CorpusVsSpec,
    ::testing::Combine(::testing::Range<size_t>(0, std::size(Corpus)),
                       ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<size_t, bool>> &Info) {
      return std::string(Corpus[std::get<0>(Info.param)].Name) +
             (std::get<1>(Info.param) ? "_O1" : "_O0");
    });

TEST(Compiler, RejectsIllTypedPrograms) {
  Result<cml::Compiled> R = cml::compileProgram("val x = 1 + true;");
  ASSERT_FALSE(R);
  EXPECT_NE(R.error().message().find("type error"), std::string::npos);
}

TEST(Compiler, RejectsSyntaxErrors) {
  Result<cml::Compiled> R = cml::compileProgram("val = ;");
  ASSERT_FALSE(R);
  EXPECT_NE(R.error().message().find("parse error"), std::string::npos);
}

TEST(Compiler, ErrorsGiveTheProgramsOwnLines) {
  // The prelude is parsed apart from the program, so its lines do not
  // shift the program's.
  Result<cml::Compiled> Parse =
      cml::compileProgram("val x = 1\nval y = (2 +\n");
  ASSERT_FALSE(Parse);
  EXPECT_EQ(Parse.error().str().rfind("parse error: 3:1: ", 0), 0u)
      << Parse.error().str();
  Result<cml::Compiled> Type =
      cml::compileProgram("val x = 1\nval _ = print (1)\n");
  ASSERT_FALSE(Type);
  EXPECT_EQ(Type.error().str().rfind("type error: 2:15: ", 0), 0u)
      << Type.error().str();
}

TEST(Compiler, OptimisationShrinksFibCode) {
  cml::CompileOptions O0;
  O0.Opt = cml::OptOptions::none();
  cml::CompileOptions O1;
  const char *Src = R"(
    val a = 2 + 3 * 4
    val b = str_size "hello" + a
    val _ = print (int_to_string b)
  )";
  Result<cml::Compiled> R0 = cml::compileProgram(Src, O0);
  Result<cml::Compiled> R1 = cml::compileProgram(Src, O1);
  ASSERT_TRUE(R0);
  ASSERT_TRUE(R1);
  EXPECT_GT(R1->Stats.FoldedConstants, 0u);
  EXPECT_LT(R1->Program.size(), R0->Program.size());
}

TEST(Compiler, OutOfMemoryExitsWithPrefixOfOutput) {
  // A tiny heap: the program prints, then exhausts memory building a
  // list.  extend_with_oom allows exactly this behaviour.
  RunSpec Spec;
  Spec.Source = R"(
    val _ = print "before"
    fun build n acc = if n = 0 then acc else build (n - 1) (n :: acc)
    val l = build 100000 []
    val _ = print (int_to_string (length l))
  )";
  Spec.Compile.Layout.MemSize = 1 << 20; // leaves a few hundred KiB usable
  Spec.Exec.MaxSteps = 100'000'000;

  Result<Outcome> Isa = runIsa(Spec);
  ASSERT_TRUE(Isa) << Isa.error().str();
  EXPECT_EQ(Isa->Status, RunStatus::Completed);
  EXPECT_EQ(Isa->Behaviour.ExitCode, machine::OomExitCode);
  EXPECT_EQ(Isa->Behaviour.StdoutData, "before"); // a prefix of the spec output

  // And the end-to-end checker accepts the OOM prefix behaviour.
  Result<std::vector<Observed>> R = checkEndToEnd(Spec, {Level::Isa});
  EXPECT_TRUE(R) << (R ? "" : R.error().str());
}

TEST(Compiler, StackOverflowAlsoExitsOom) {
  RunSpec Spec;
  Spec.Source = R"(
    fun deep n = if n = 0 then 0 else 1 + deep (n - 1)
    val _ = print (int_to_string (deep 1000000))
  )";
  Spec.Exec.MaxSteps = 200'000'000;
  Result<Outcome> Isa = runIsa(Spec);
  ASSERT_TRUE(Isa) << Isa.error().str();
  EXPECT_EQ(Isa->Status, RunStatus::Completed);
  EXPECT_EQ(Isa->Behaviour.ExitCode, machine::OomExitCode);
}

TEST(Compiler, TrapExitCodesMatchInterpreter) {
  for (const char *Src :
       {"val x = 1 div 0", "val x = case [] of h :: t => h",
        "val x = str_sub \"\" 0", "val x = chr 999",
        "val x = substring \"abc\" 2 5"}) {
    RunSpec Spec;
    Spec.Source = Src;
    Result<std::vector<Observed>> R =
        checkEndToEnd(Spec, {Level::Machine, Level::Isa});
    EXPECT_TRUE(R) << Src << ": " << (R ? "" : R.error().str());
  }
}

TEST(Compiler, ReadChunkReturnsAtMostOneFfiChunk) {
  // Asking for more than one FFI chunk returns one chunk, at the spec
  // as on the machine: 60000 of the 80000 bytes, not 70000.
  RunSpec Spec;
  Spec.Source = "val _ = print (int_to_string (str_size (read_chunk 70000)))";
  Spec.StdinData = std::string(80'000, 'x');
  Spec.Exec.MaxSteps = 500'000'000;
  Result<std::vector<Observed>> R =
      checkEndToEnd(Spec, {Level::Machine, Level::Isa});
  ASSERT_TRUE(R) << R.error().str();
  for (const Observed &O : *R)
    EXPECT_EQ(O.StdoutData, std::to_string(cml::IoChunkBytes));
}

TEST(Compiler, LargeStringIoRoundTrips) {
  // Exercises chunked reads and writes (60000-byte FFI chunks).
  std::string Big;
  for (int I = 0; I != 150'000; ++I)
    Big.push_back(static_cast<char>('a' + I % 26));
  RunSpec Spec;
  Spec.Source = "val _ = print (input_all ())";
  Spec.StdinData = Big;
  Spec.Exec.MaxSteps = 500'000'000;
  Result<Outcome> R = runIsa(Spec);
  ASSERT_TRUE(R) << R.error().str();
  EXPECT_EQ(R->Behaviour.StdoutData, Big);
  EXPECT_EQ(R->Behaviour.ExitCode, 0);
}

TEST(Compiler, ReportsStatistics) {
  Result<cml::Compiled> R = cml::compileProgram(
      "fun f x = x + 1; val _ = print (int_to_string (f 1));");
  ASSERT_TRUE(R);
  EXPECT_GT(R->NumFunctions, 0u);
  EXPECT_GT(R->NumGlobals, 0u);
  EXPECT_GT(R->Program.size(), 1000u); // runtime + prelude + program
  EXPECT_EQ(R->CodeBase % 4096, 0u);
}

namespace {

/// The pipeline over the prelude and the program as one text, pass by
/// pass: the sequence perfbench's oneshot workload times.  Code
/// generation fills Asm; link() assembles it twice, at 0 for the size and
/// then at the CodeBase.
struct WholeProgram {
  cml::Compiled Out;
  assembler::Assembler Asm;

  static Result<WholeProgram> compile(const std::string &Source,
                                      const cml::OptOptions &Opt) {
    Result<cml::Program> Prog = cml::parseProgram(cml::withPrelude(Source));
    if (!Prog)
      return Error("parse error: " + Prog.error().str());
    if (auto Types = cml::inferProgram(*Prog); !Types)
      return Error("type error: " + Types.error().str());
    Result<cml::CoreProgram> Core = cml::lowerProgram(*Prog);
    if (!Core)
      return Core.error();
    WholeProgram W;
    W.Out.Stats = cml::optimizeCore(*Core, Opt);
    W.Out.NumGlobals = Core->GlobalCount;
    cml::FlatProgram Flat = cml::flattenProgram(Core.take());
    W.Out.NumFunctions = static_cast<unsigned>(Flat.Funs.size());
    if (Result<void> G = cml::generateProgram(Flat, W.Asm); !G)
      return G.error();
    return W;
  }

  Result<cml::Compiled> link(const sys::LayoutParams &Params) const {
    Result<assembler::Assembled> Sized = Asm.assemble(0);
    if (!Sized)
      return Sized.error();
    Result<sys::MemoryLayout> Layout = sys::MemoryLayout::compute(
        Params, static_cast<Word>(Sized->Bytes.size()));
    if (!Layout)
      return Layout.error();
    Result<assembler::Assembled> Final = Asm.assemble(Layout->CodeBase);
    if (!Final)
      return Final.error();
    cml::Compiled C = Out;
    C.Program = std::move(Final->Bytes);
    C.CodeBase = Layout->CodeBase;
    return C;
  }
};

/// Every program the byte-identity check compiles.
std::vector<std::string> identityPrograms() {
  std::vector<std::string> Out;
  for (const char *App :
       {helloSource(), catSource(), wcSource(), sortSource(),
        proofCheckerSource(), tinCompilerSource()}) {
    Out.push_back(App);
    // perfbench's source variants: one more top-level value.
    for (uint64_t Tag : {(7ull << 20) + 1, 999ull})
      Out.push_back(std::string(App) + "\nval bench_variant_" +
                    std::to_string(Tag) + " = " +
                    std::to_string(Tag % 1000) + "\n");
  }
  for (const CorpusEntry &E : Corpus)
    Out.push_back(E.Source);
  // The sources of MiddleEndTest and of the tests above.
  for (const char *Src : {
           "val a = 1; val b = 2; fun f x = x;",
           "fun f l = case l of [] => 0 | h :: t => h;",
           "val x = str_sub \"ab\" 0;", "val f = str_sub \"ab\";",
           "val x = true; val c = #\"A\";", "val x = 2 + 3 * 4;",
           "val x = 1 div 0;", R"(val x = str_size ("ab" ^ "cde");)",
           "val x = if 1 < 2 then 10 else 20;",
           "val x = let val unused = (1, 2) in 5 end;",
           "val x = let val unused = print \"hi\" in 5 end;",
           "val r = let val f = fn x => x + 1 in f 41 end;",
           "fun add a b = if a = 0 then b else add (a - 1) (b + 1); "
           "val r = add 1 2;",
           "val k = 5; fun addk x = x + k;",
           "val r = let val k = 5 in (fn x => x + k) 1 end;",
           "fun even n = if n = 0 then true else odd (n - 1)\n"
           "and odd n = if n = 0 then false else even (n - 1);",
           R"(val a = "dup"; val b = "dup"; val c = "uniq";)",
           "val _ = print (int_to_string (str_size (read_chunk 70000)))",
           "val _ = print (input_all ())",
           "fun f x = x + 1; val _ = print (int_to_string (f 1));",
           "val x = case [] of h :: t => h", "val x = chr 999",
           // Nothing, and names that shadow the prelude's.
           "", "val _ = ()",
           "fun map f l = 3\nval length = 3\n"
           "val _ = print (int_to_string (length + map 1 2))",
           "fun rev l = l\nfun append a b = b\nval hd = \"s\"\n"
           "val _ = print (hd ^ concat (rev (append [] [\"x\"])))"})
    Out.push_back(Src);
  for (uint64_t Seed = 0; Seed != 200; ++Seed)
    Out.push_back(test::ProgramGen(Seed * 1000003ull + 5).program());
  return Out;
}

} // namespace

TEST(Compiler, PreludeOnceMatchesWholeProgramPipeline) {
  // compileProgram resumes every pass from the prelude's saved state and
  // places the prelude's prefix fragment; the result must be the bytes
  // the passes give over the prelude and the program in one run.
  cml::OptOptions NoInline = cml::OptOptions::all();
  NoInline.InlineSizeLimit = 0;
  sys::LayoutParams Small;
  Small.MemSize = 8u << 20;
  Small.StdinCap = 64u << 10;
  unsigned Compared = 0;
  std::vector<std::string> Programs = identityPrograms();
  for (const std::string &Src : Programs)
    for (const cml::OptOptions &Opt :
         {cml::OptOptions::all(), cml::OptOptions::none(), NoInline}) {
      Result<WholeProgram> Whole = WholeProgram::compile(Src, Opt);
      ASSERT_TRUE(Whole) << Src << "\n" << Whole.error().str();
      for (const sys::LayoutParams &Layout : {sys::LayoutParams(), Small}) {
        Result<cml::Compiled> Ref = Whole->link(Layout);
        ASSERT_TRUE(Ref) << Src << "\n" << Ref.error().str();
        cml::CompileOptions Options;
        Options.Opt = Opt;
        Options.Layout = Layout;
        Result<cml::Compiled> Got = cml::compileProgram(Src, Options);
        ASSERT_TRUE(Got) << Src << "\n" << Got.error().str();
        ASSERT_EQ(Got->CodeBase, Ref->CodeBase) << Src;
        ASSERT_TRUE(Got->Program == Ref->Program) << Src;
        EXPECT_EQ(Got->Stats.FoldedConstants, Ref->Stats.FoldedConstants);
        EXPECT_EQ(Got->Stats.RemovedLets, Ref->Stats.RemovedLets);
        EXPECT_EQ(Got->Stats.InlinedCalls, Ref->Stats.InlinedCalls);
        EXPECT_EQ(Got->NumFunctions, Ref->NumFunctions);
        EXPECT_EQ(Got->NumGlobals, Ref->NumGlobals);
        ++Compared;
      }
    }
  EXPECT_EQ(Compared, Programs.size() * 6);
}

TEST(Compiler, ErrorTextsNameTheProgramsOwnPositionsAndTypes) {
  // Type variables are numbered after the prelude's, as when the two
  // were checked in one run.
  const std::pair<const char *, const char *> Cases[] = {
      {"val x = 1 + true;", "type error: 1:13: type mismatch: bool vs int"},
      {"val = ;", "parse error: 1:5: expected an identifier"},
      {"val a = 1\nval b = \"x\" ^ 3",
       "type error: 2:15: type mismatch: int vs string"},
      {"val b = (fn x => x) = (fn y => y)",
       "type error: 1:21: equality used at a function type ('t303 -> "
       "'t303)"},
      {"val _ = print (foo 3)", "type error: 1:16: unbound variable 'foo'"},
      {"fun map f l = case l of [] => [] | h :: t => f h :: map f t :: [];",
       "type error: 1:5: occurs check: cannot construct the infinite type"},
  };
  for (const auto &[Src, Text] : Cases) {
    Result<cml::Compiled> R = cml::compileProgram(Src);
    ASSERT_FALSE(R) << Src;
    EXPECT_EQ(R.error().str(), Text);
    // The Spec level checks the same declarations the same way.
    RunSpec Spec;
    Spec.Source = Src;
    Result<Outcome> S = runSpecLevel(Spec);
    ASSERT_FALSE(S) << Src;
    EXPECT_EQ(S.error().str(), Text);
  }
}
