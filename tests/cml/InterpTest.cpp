//===- tests/cml/InterpTest.cpp - reference interpreter tests ------------------===//

#include "cml/Compiler.h"
#include "cml/Interp.h"
#include "cml/Parser.h"

#include <gtest/gtest.h>

using namespace silver;
using namespace silver::cml;

namespace {

RunOutput evalWithPrelude(const std::string &Src,
                          const std::vector<std::string> &Cl = {"prog"},
                          const std::string &Stdin = "") {
  Result<Program> P = parseWithPrelude(Src);
  EXPECT_TRUE(P) << P.error().str();
  if (!P)
    return {};
  return interpretProgram(*P, Cl, Stdin, /*MaxSteps=*/100'000'000);
}

std::string out(const std::string &Src) {
  RunOutput O = evalWithPrelude(Src);
  EXPECT_TRUE(O.Ok) << O.ErrorMessage;
  EXPECT_EQ(O.ExitCode, 0);
  return O.Ffi.getStdout();
}

} // namespace

TEST(Interp, PrintAndArithmetic) {
  EXPECT_EQ(out("val _ = print (int_to_string (2 + 3 * 4))"), "14");
  EXPECT_EQ(out("val _ = print (int_to_string (0 - 7))"), "~7");
  EXPECT_EQ(out("val _ = print (int_to_string 0)"), "0");
}

TEST(Interp, Wrap31Arithmetic) {
  // 31-bit two's complement wrapping (documented deviation from CakeML).
  EXPECT_EQ(wrap31(0x40000000), -0x40000000);
  EXPECT_EQ(wrap31(0x3fffffff), 0x3fffffff);
  EXPECT_EQ(wrap31(int64_t(0x3fffffff) + 1), -0x40000000);
  EXPECT_EQ(out("val _ = print (int_to_string (1073741823 + 1 - 1))"),
            "1073741823");
}

TEST(Interp, DivModFloorSemantics) {
  EXPECT_EQ(out("val _ = print (int_to_string (7 div 2))"), "3");
  EXPECT_EQ(out("val _ = print (int_to_string ((0-7) div 2))"), "~4");
  EXPECT_EQ(out("val _ = print (int_to_string (7 mod (0-2)))"), "~1");
  EXPECT_EQ(out("val _ = print (int_to_string ((0-7) mod 2))"), "1");
}

TEST(Interp, TrapExitCodes) {
  RunOutput O = evalWithPrelude("val x = 1 div 0");
  EXPECT_TRUE(O.Ok);
  EXPECT_EQ(O.ExitCode, TrapDivCode);
  O = evalWithPrelude("val x = case [] of h :: t => h");
  EXPECT_EQ(O.ExitCode, TrapMatchCode);
  O = evalWithPrelude("val x = str_sub \"ab\" 5");
  EXPECT_EQ(O.ExitCode, TrapSubscriptCode);
  O = evalWithPrelude("val _ = print \"a\" val _ = exit 9 "
                      "val _ = print \"b\"");
  EXPECT_EQ(O.ExitCode, 9);
  EXPECT_EQ(O.Ffi.getStdout(), "a");
}

TEST(Interp, ClosuresCaptureLexically) {
  EXPECT_EQ(out(R"(
    val k = 10
    fun add x = x + k
    val k = 100
    val _ = print (int_to_string (add 5))
  )"),
            "15");
}

TEST(Interp, RecursiveClosuresSeeDefinitionScope) {
  EXPECT_EQ(out(R"(
    val y = 1
    fun f n = if n = 0 then y else f (n - 1)
    val y = 2
    val _ = print (int_to_string (f 3))
  )"),
            "1");
}

TEST(Interp, HigherOrderAndPartialApplication) {
  EXPECT_EQ(out(R"(
    fun add a b = a + b
    val inc = add 1
    val _ = print (int_to_string (inc 41))
  )"),
            "42");
  EXPECT_EQ(out(R"(
    val _ = print (int_to_string
      (foldl (fn a => fn b => a + b) 0 (map (fn x => x * x) [1,2,3,4])))
  )"),
            "30");
}

TEST(Interp, TailCallsRunInConstantStack) {
  // One million iterations through a tail-recursive loop.
  EXPECT_EQ(out(R"(
    fun loop i acc = if i = 0 then acc else loop (i - 1) (acc + 1)
    val _ = print (int_to_string (loop 1000000 0))
  )"),
            "1000000");
}

TEST(Interp, StringsAndChars) {
  EXPECT_EQ(out(R"(val _ = print (implode (rev (explode "abc"))))"), "cba");
  EXPECT_EQ(out(R"(val _ = print (substring "hello" 1 3))"), "ell");
  EXPECT_EQ(out(R"(val _ = print (str (chr (ord #"a" + 1))))"), "b");
  EXPECT_EQ(out(R"(val _ = print (int_to_string (strcmp "a" "b")))"), "~1");
  EXPECT_EQ(out(R"(val _ = print (concat ["a", "b", "c"]))"), "abc");
}

TEST(Interp, PolymorphicEquality) {
  EXPECT_EQ(out(R"(val _ = print (if [(1, "a")] = [(1, "a")]
                                  then "y" else "n"))"),
            "y");
  EXPECT_EQ(out(R"(val _ = print (if ("ab", [1]) = ("ab", [2])
                                  then "y" else "n"))"),
            "n");
}

TEST(Interp, IoPrimitives) {
  RunOutput O = evalWithPrelude(
      "val _ = print (input_all ())", {"prog"}, "line1\nline2");
  EXPECT_EQ(O.Ffi.getStdout(), "line1\nline2");
  O = evalWithPrelude(
      "val _ = print (join \",\" (arguments ()))", {"a", "bb", "c"});
  EXPECT_EQ(O.Ffi.getStdout(), "a,bb,c");
  O = evalWithPrelude("val _ = print_err \"oops\"");
  EXPECT_EQ(O.Ffi.getStderr(), "oops");
  EXPECT_EQ(O.Ffi.getStdout(), "");
}

TEST(Interp, PreludeListFunctions) {
  EXPECT_EQ(out("val _ = print (int_to_string (length [1,2,3]))"), "3");
  EXPECT_EQ(out("val _ = print (int_to_string (nth [5,6,7] 1))"), "6");
  EXPECT_EQ(out("val _ = print (if member 2 [1,2] then \"y\" else \"n\")"),
            "y");
  EXPECT_EQ(out("val _ = print (int_to_string (length (take [1,2,3] 2)))"),
            "2");
  EXPECT_EQ(out("val _ = print (int_to_string (hd (drop [1,2,3] 2)))"),
            "3");
  EXPECT_EQ(out("val _ = print (if all (fn x => x > 0) [1,2] "
                "andalso not (exists (fn x => x > 1) [0,1]) "
                "then \"y\" else \"n\")"),
            "y");
  EXPECT_EQ(out("val _ = print (int_to_string "
                "(foldr (fn a => fn b => a - b) 0 [1,2,3]))"),
            "2");
}

TEST(Interp, TokensAndLines) {
  EXPECT_EQ(out(R"(val _ = print (int_to_string
                     (length (tokens is_space "  a bb  c "))))"),
            "3");
  EXPECT_EQ(out(R"(val _ = print (join "|" (lines "x\ny\n\nz")))"),
            "x|y|z");
}

TEST(Interp, ShortCircuitEvaluation) {
  // The right operand must not run when the left decides.
  EXPECT_EQ(out(R"(
    fun boom u = let val _ = exit 7 in true end
    val _ = print (if false andalso boom () then "a" else "b")
    val _ = print (if true orelse boom () then "c" else "d")
  )"),
            "bc");
}

TEST(Interp, StepBudgetReportsError) {
  Result<Program> P = parseProgram("fun f x = f x; val _ = f 1;");
  ASSERT_TRUE(P);
  RunOutput O = interpretProgram(*P, {}, "", /*MaxSteps=*/10'000);
  EXPECT_FALSE(O.Ok);
}
