//===- tests/stack/AppsSpecTest.cpp - the specification functions --------------===//
//
// The paper's §2.1: applications are specified by HOL functions (wc_spec
// and friends).  These tests pin down the transcription of those specs —
// the top of the trusted base — on edge cases, independently of any
// compilation or simulation.
//
//===----------------------------------------------------------------------===//

#include "stack/Apps.h"

#include <gtest/gtest.h>

using namespace silver;
using namespace silver::stack;

TEST(WcSpec, CountsMaximalTokenRuns) {
  EXPECT_EQ(wcSpec(""), "0\n");
  EXPECT_EQ(wcSpec("   \t\n"), "0\n");
  EXPECT_EQ(wcSpec("one"), "1\n");
  EXPECT_EQ(wcSpec(" a  b\tc\nd "), "4\n");
  EXPECT_EQ(wcSpec("a\nb"), "2\n");
  // Vertical tab and form feed are is_space characters (codes 11, 12).
  EXPECT_EQ(wcSpec("a\x0b" "b\x0c" "c"), "3\n");
}

TEST(SortSpec, SortsLinesDroppingEmpties) {
  EXPECT_EQ(sortSpec(""), "");
  EXPECT_EQ(sortSpec("b\na\n"), "a\nb\n");
  EXPECT_EQ(sortSpec("b\n\n\na\n"), "a\nb\n"); // empty lines dropped
  EXPECT_EQ(sortSpec("x"), "x\n");             // final newline added
  // Byte-wise (unsigned) ordering.
  EXPECT_EQ(sortSpec("B\na\n"), "B\na\n");
}

TEST(CatSpec, Identity) {
  EXPECT_EQ(catSpec(""), "");
  std::string All;
  for (int I = 1; I != 256; ++I)
    All.push_back(static_cast<char>(I));
  EXPECT_EQ(catSpec(All), All);
}

TEST(ProofSpec, AcceptsTheSampleAndRejectsMutants) {
  EXPECT_EQ(proofSpec(sampleValidProof()), "VALID\n");
  EXPECT_EQ(proofSpec(sampleInvalidProof()), "INVALID 1\n");
}

TEST(ProofSpec, AxiomShapes) {
  EXPECT_EQ(proofSpec("K >p>qp\n"), "VALID\n");
  EXPECT_EQ(proofSpec("K >p>qq\n"), "INVALID 1\n");     // not K-shaped
  EXPECT_EQ(proofSpec("K >pq\n"), "INVALID 1\n");       // too shallow
  EXPECT_EQ(proofSpec("K garbage\n"), "INVALID 1\n");   // ill-formed
  EXPECT_EQ(proofSpec("K >>ab>c>ab\n"), "VALID\n");     // a itself compound
  EXPECT_EQ(proofSpec("S >>p>qr>>pq>pr\n"), "VALID\n"); // S instance
  EXPECT_EQ(proofSpec("S >>p>qr>>pq>pp\n"), "INVALID 1\n");
}

TEST(ProofSpec, ModusPonensBookkeeping) {
  // M referencing a future or absent step is invalid.
  EXPECT_EQ(proofSpec("M 1 2\n"), "INVALID 1\n");
  EXPECT_EQ(proofSpec("K >p>qp\nM 1 5\n"), "INVALID 2\n");
  // Wrong direction: step j must be an implication whose antecedent is
  // step i.
  EXPECT_EQ(proofSpec("K >p>qp\nK >q>pq\nM 1 2\n"), "INVALID 3\n");
  // Empty lines are dropped by `lines` before numbering; a line of
  // spaces survives splitting and is numbered but skipped.
  EXPECT_EQ(proofSpec("\nK >p>qq\n"), "INVALID 1\n");
  EXPECT_EQ(proofSpec("  \nK >p>qq\n"), "INVALID 2\n");
}

TEST(TinSpec, CompilesStatements) {
  EXPECT_EQ(tinSpec("print 1 + 2"), "PUSH 1\nPUSH 2\nADD\nPRINT\n");
  EXPECT_EQ(tinSpec("x = 2 * (3 - 1)"),
            "PUSH 2\nPUSH 3\nPUSH 1\nSUB\nMUL\nSTORE x\n");
  EXPECT_EQ(tinSpec("a = 1; print a"), "PUSH 1\nSTORE a\nLOAD a\nPRINT\n");
  // Precedence: * binds tighter than +.
  EXPECT_EQ(tinSpec("print 1 + 2 * 3"),
            "PUSH 1\nPUSH 2\nPUSH 3\nMUL\nADD\nPRINT\n");
}

TEST(TinSpec, RejectsMalformedPrograms) {
  for (const char *Bad :
       {"x =", "= 1", "print", "x 1", "print (1", "1", "x = 1 2",
        "print 1 +", "x = (1))"}) {
    EXPECT_EQ(tinSpec(Bad), "ERROR\n") << Bad;
  }
  EXPECT_EQ(tinSpec(""), "");
}

TEST(Builtins, EveryNameResolvesAndOthersDoNot) {
  EXPECT_STREQ(builtinSource("hello"), helloSource());
  EXPECT_STREQ(builtinSource("cat"), catSource());
  EXPECT_STREQ(builtinSource("wc"), wcSource());
  EXPECT_STREQ(builtinSource("sort"), sortSource());
  EXPECT_STREQ(builtinSource("proof"), proofCheckerSource());
  EXPECT_STREQ(builtinSource("tin"), tinCompilerSource());
  EXPECT_EQ(builtinSource(""), nullptr);
  EXPECT_EQ(builtinSource("Hello"), nullptr);
  EXPECT_EQ(builtinSource("wc "), nullptr);
}

TEST(Generators, Deterministic) {
  EXPECT_EQ(randomLines(10, 7), randomLines(10, 7));
  EXPECT_NE(randomLines(10, 7), randomLines(10, 8));
  EXPECT_EQ(sampleTinProgram(6), sampleTinProgram(6));
  // Every generated Tin program compiles.
  for (unsigned N : {1u, 3u, 17u, 40u})
    EXPECT_NE(tinSpec(sampleTinProgram(N)), "ERROR\n") << N;
  // Generated lines are newline-terminated non-empty text.
  std::string L = randomLines(5, 1);
  EXPECT_FALSE(L.empty());
  EXPECT_EQ(L.back(), '\n');
}
