//===- tests/cml/MiddleEndTest.cpp - lowering, optimiser, flattener ------------===//

#include "cml/Flat.h"
#include "cml/Infer.h"
#include "cml/Interp.h"
#include "cml/Lower.h"
#include "cml/Opt.h"
#include "cml/Parser.h"

#include <gtest/gtest.h>

using namespace silver;
using namespace silver::cml;

namespace {

CoreProgram lower(const std::string &Src) {
  Result<Program> P = parseProgram(Src);
  EXPECT_TRUE(P) << P.error().str();
  Result<std::map<std::string, Scheme>> T = inferProgram(*P);
  EXPECT_TRUE(T) << (T ? "" : T.error().str());
  Result<CoreProgram> C = lowerProgram(*P);
  EXPECT_TRUE(C);
  return C.take();
}

/// Interpreter-level behaviour must be preserved by the optimiser: we
/// compare the *source* program before and after by round-tripping
/// through the interpreter (the optimiser works on Core, so we check
/// semantics via compilation in CompilerTest; here we check Core shape).
size_t coreSize(const CoreProgram &P) { return P.Main->size(); }

} // namespace

TEST(Lower, GlobalsAssignedInOrder) {
  CoreProgram P = lower("val a = 1; val b = 2; fun f x = x;");
  EXPECT_EQ(P.GlobalCount, 3u);
  ASSERT_EQ(P.GlobalNames.size(), 3u);
  EXPECT_EQ(P.GlobalNames[0], "a");
  EXPECT_EQ(P.GlobalNames[2], "f");
}

TEST(Lower, CaseBecomesTests) {
  CoreProgram P = lower("fun f l = case l of [] => 0 | h :: t => h;");
  std::string S = coreToString(*P.Main);
  EXPECT_NE(S.find("isnil"), std::string::npos);
  EXPECT_NE(S.find("head"), std::string::npos);
  EXPECT_NE(S.find("trap[4]"), std::string::npos); // Match failure arm
}

TEST(Lower, PrimitivesSaturateOrEtaExpand) {
  // Saturated: direct prim. Partial: eta-expanded lambda.
  CoreProgram Sat = lower("val x = str_sub \"ab\" 0;");
  EXPECT_NE(coreToString(*Sat.Main).find("(strsub"), std::string::npos);
  CoreProgram Partial = lower("val f = str_sub \"ab\";");
  std::string S = coreToString(*Partial.Main);
  EXPECT_NE(S.find("fn eta"), std::string::npos);
}

// Fresh names are numbered in lowering order, and every image's bytes
// follow from the names: the sub-expressions of if, andalso and orelse
// lower right to left (else branch first).
TEST(Lower, IfLowersElseBranchFirst) {
  CoreProgram P =
      lower("val x = if true then (fn a => a) 1 else (fn b => b) 2;");
  EXPECT_EQ(coreToString(*P.Main),
            "(let %g0 = (gset[0] (if 1 ((fn a$1 => a$1) 1)"
            " ((fn b$0 => b$0) 2))) in 0)");
}

TEST(Lower, AndAlsoOrElseLowerRightOperandFirst) {
  CoreProgram P = lower("val y = ((fn a => a) true andalso (fn b => b) false)"
                        " orelse (fn c => c) true;");
  EXPECT_EQ(coreToString(*P.Main),
            "(let %g0 = (gset[0] (if (if ((fn a$2 => a$2) 1)"
            " ((fn b$1 => b$1) 0) 0) 1 ((fn c$0 => c$0) 1))) in 0)");
}

TEST(Lower, BoolsAndCharsAreInts) {
  CoreProgram P = lower("val x = true; val c = #\"A\";");
  std::string S = coreToString(*P.Main);
  EXPECT_NE(S.find("gset[0] 1"), std::string::npos);
  EXPECT_NE(S.find("gset[1] 65"), std::string::npos);
}

TEST(Opt, ConstantFolding) {
  CoreProgram P = lower("val x = 2 + 3 * 4;");
  OptOptions All = OptOptions::all();
  OptStats Stats = optimizeCore(P, All);
  EXPECT_GE(Stats.FoldedConstants, 2u);
  EXPECT_NE(coreToString(*P.Main).find("gset[0] 14"), std::string::npos);
}

TEST(Opt, DivByZeroNotFolded) {
  CoreProgram P = lower("val x = 1 div 0;");
  OptOptions All = OptOptions::all();
  optimizeCore(P, All);
  // The trap-causing division must survive to runtime.
  EXPECT_NE(coreToString(*P.Main).find("div"), std::string::npos);
}

TEST(Opt, StringFolding) {
  CoreProgram P = lower(R"(val x = str_size ("ab" ^ "cde");)");
  OptOptions All = OptOptions::all();
  optimizeCore(P, All);
  EXPECT_NE(coreToString(*P.Main).find("gset[0] 5"), std::string::npos);
}

TEST(Opt, IfOnConstantSelectsBranch) {
  CoreProgram P = lower("val x = if 1 < 2 then 10 else 20;");
  OptOptions All = OptOptions::all();
  optimizeCore(P, All);
  std::string S = coreToString(*P.Main);
  EXPECT_NE(S.find("gset[0] 10"), std::string::npos);
  EXPECT_EQ(S.find("20"), std::string::npos);
}

TEST(Opt, DeadLetElimination) {
  CoreProgram P = lower("val x = let val unused = (1, 2) in 5 end;");
  OptOptions All = OptOptions::all();
  OptStats Stats = optimizeCore(P, All);
  EXPECT_GE(Stats.RemovedLets, 1u);
  EXPECT_EQ(coreToString(*P.Main).find("pair"), std::string::npos);
}

TEST(Opt, EffectfulLetsKept) {
  CoreProgram P = lower(
      "val x = let val unused = print \"hi\" in 5 end;");
  OptOptions All = OptOptions::all();
  optimizeCore(P, All);
  EXPECT_NE(coreToString(*P.Main).find("print"), std::string::npos);
}

TEST(Opt, InlineSingleUseLambda) {
  CoreProgram P = lower(
      "val r = let val f = fn x => x + 1 in f 41 end;");
  OptOptions All = OptOptions::all();
  OptStats Stats = optimizeCore(P, All);
  EXPECT_GE(Stats.InlinedCalls, 1u);
  // After inlining + folding the result is a constant store.
  EXPECT_NE(coreToString(*P.Main).find("gset[0] 42"), std::string::npos);
}

TEST(Opt, NoneLeavesProgramAlone) {
  CoreProgram P = lower("val x = 2 + 3;");
  size_t Before = coreSize(P);
  OptOptions None = OptOptions::none();
  OptStats Stats = optimizeCore(P, None);
  EXPECT_EQ(Stats.FoldedConstants, 0u);
  EXPECT_EQ(coreSize(P), Before);
}

TEST(Flatten, ProducesFirstOrderFunctions) {
  CoreProgram P = lower(
      "fun add a b = if a = 0 then b else add (a - 1) (b + 1); "
      "val r = add 1 2;");
  FlatProgram F = flattenProgram(std::move(P));
  // Curried add: two functions (outer and inner lambda).
  EXPECT_GE(F.Funs.size(), 2u);
  for (const FlatFunction &Fn : F.Funs)
    EXPECT_TRUE(Fn.Body != nullptr);
  std::string S = flatToString(F);
  EXPECT_NE(S.find("alloc_closure"), std::string::npos);
  EXPECT_NE(S.find("tailcall"), std::string::npos);
}

TEST(Flatten, CapturesFreeVariables) {
  CoreProgram P = lower("val k = 5; fun addk x = x + k;");
  FlatProgram F = flattenProgram(std::move(P));
  std::string S = flatToString(F);
  // addk captures nothing (k is a global), so closures have no env and
  // the body uses gget.
  EXPECT_NE(S.find("gget[0]"), std::string::npos);

  CoreProgram P2 = lower(
      "val r = let val k = 5 in (fn x => x + k) 1 end;");
  OptOptions None = OptOptions::none();
  optimizeCore(P2, None);
  FlatProgram F2 = flattenProgram(std::move(P2));
  std::string S2 = flatToString(F2);
  EXPECT_NE(S2.find("clos_env[0]"), std::string::npos);
  EXPECT_NE(S2.find("clos_set[0]"), std::string::npos);
}

TEST(Flatten, LetrecBackpatchesSiblings) {
  CoreProgram P = lower(R"(
    fun even n = if n = 0 then true else odd (n - 1)
    and odd n = if n = 0 then false else even (n - 1);
  )");
  FlatProgram F = flattenProgram(std::move(P));
  std::string S = flatToString(F);
  // Both closures allocated before any clos_set (the backpatching).
  size_t FirstSet = S.find("clos_set");
  size_t SecondAlloc = S.rfind("alloc_closure");
  ASSERT_NE(FirstSet, std::string::npos);
  ASSERT_NE(SecondAlloc, std::string::npos);
  EXPECT_LT(SecondAlloc, FirstSet);
}

TEST(Flatten, NonTailIfBranchesDoNotTailCall) {
  // let x = (if c then f 1 else 2) in x + 1 — the call must be a plain
  // call (its result feeds the join), not a tail call.
  CoreProgram P = lower(R"(
    fun f y = y;
    fun g c = (if c then f 1 else 2) + 1;
  )");
  OptOptions None = OptOptions::none();
  optimizeCore(P, None);
  FlatProgram F = flattenProgram(std::move(P));
  std::string S = flatToString(F);
  // Find g's body: within an if-rhs there must be "call", and the
  // program still has tailcalls elsewhere.
  EXPECT_NE(S.find("call "), std::string::npos);
}

TEST(Flatten, InternedStringsShareThePool) {
  CoreProgram P = lower(R"(val a = "dup"; val b = "dup"; val c = "uniq";)");
  FlatProgram F = flattenProgram(std::move(P));
  EXPECT_EQ(F.StringPool.size(), 2u);
}
