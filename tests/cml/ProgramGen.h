//===- tests/cml/ProgramGen.h - random well-typed MiniCake programs ---------===//
//
// The generator behind the random-program tests: expressions over three
// types (int, bool, string) with lets, ifs, comparisons, arithmetic
// (div/mod included, so trap behaviour is exercised), string operations,
// recursive accumulator functions, and list folds.  Every generated
// program is closed and well-typed by construction.
//
//===----------------------------------------------------------------------===//

#ifndef SILVER_TESTS_CML_PROGRAMGEN_H
#define SILVER_TESTS_CML_PROGRAMGEN_H

#include "support/Rng.h"

#include <string>
#include <vector>

namespace silver {
namespace test {

/// Generates expressions of a requested type.
class ProgramGen {
public:
  explicit ProgramGen(uint64_t Seed) : R(Seed) {}

  enum class Ty { Int, Bool, Str };

  std::string program() {
    std::string Src;
    // A few helper functions usable by the main expression.
    Src += "fun gsum l = foldl (fn a => fn b => a + b) 0 l;\n";
    Src += "fun gloop n acc = if n <= 0 then acc "
           "else gloop (n - 1) (acc * 3 + n);\n";
    IntVars.clear();
    BoolVars.clear();
    StrVars.clear();
    Src += "val iv0 = " + intExp(2) + ";\n";
    IntVars = {"iv0"};
    Src += "val sv0 = " + strExp(2) + ";\n";
    StrVars = {"sv0"};
    for (int I = 1; I != 4; ++I) {
      switch (R.below(3)) {
      case 0: {
        std::string N = "iv" + std::to_string(I);
        Src += "val " + N + " = " + intExp(3) + ";\n";
        IntVars.push_back(N);
        break;
      }
      case 1: {
        std::string N = "bv" + std::to_string(I);
        Src += "val " + N + " = " + boolExp(3) + ";\n";
        BoolVars.push_back(N);
        break;
      }
      default: {
        std::string N = "sv" + std::to_string(I);
        Src += "val " + N + " = " + strExp(3) + ";\n";
        StrVars.push_back(N);
        break;
      }
      }
    }
    Src += "val _ = print (int_to_string (" + intExp(4) + "));\n";
    Src += "val _ = print (" + strExp(3) + ");\n";
    Src += "val _ = print (if " + boolExp(3) +
           " then \"T\" else \"F\");\n";
    return Src;
  }

private:
  Rng R;
  std::vector<std::string> IntVars;
  std::vector<std::string> BoolVars;
  std::vector<std::string> StrVars;

  std::string pick(const std::vector<std::string> &Vars) {
    return Vars[R.below(static_cast<uint32_t>(Vars.size()))];
  }

  /// Integer literal in MiniCake syntax (~ is the negation sign).
  static std::string lit(int V) {
    return V < 0 ? '~' + std::to_string(-V) : std::to_string(V);
  }

  std::string intExp(int Depth) {
    if (Depth <= 0 || R.chance(1, 5)) {
      if (!IntVars.empty() && R.chance(1, 2))
        return pick(IntVars);
      return lit(R.range(-40, 40));
    }
    switch (R.below(8)) {
    case 0:
      return '(' + intExp(Depth - 1) + " + " + intExp(Depth - 1) + ")";
    case 1:
      return '(' + intExp(Depth - 1) + " - " + intExp(Depth - 1) + ")";
    case 2:
      return '(' + intExp(Depth - 1) + " * " + intExp(Depth - 1) + ")";
    case 3:
      // Division with a never-zero divisor shape (trap-free), or a
      // literal divisor that may be zero (trap behaviour must match).
      if (R.chance(1, 4))
        return '(' + intExp(Depth - 1) + " div " + lit(R.range(-3, 3)) +
               ")";
      return '(' + intExp(Depth - 1) + " mod (1 + abs " +
             intExp(Depth - 1) + "))";
    case 4:
      return "(if " + boolExp(Depth - 1) + " then " + intExp(Depth - 1) +
             " else " + intExp(Depth - 1) + ")";
    case 5:
      return "(let val t = " + intExp(Depth - 1) + " in t + t end)";
    case 6:
      return "(str_size " + strExp(Depth - 1) + ")";
    default:
      return "(gloop " + std::to_string(R.below(20)) + " " +
             intExp(Depth - 1) + ")";
    }
  }

  std::string boolExp(int Depth) {
    if (Depth <= 0 || R.chance(1, 5)) {
      if (!BoolVars.empty() && R.chance(1, 2))
        return pick(BoolVars);
      return R.chance(1, 2) ? "true" : "false";
    }
    switch (R.below(6)) {
    case 0:
      return '(' + intExp(Depth - 1) + " < " + intExp(Depth - 1) + ")";
    case 1:
      return '(' + intExp(Depth - 1) + " = " + intExp(Depth - 1) + ")";
    case 2:
      return '(' + strExp(Depth - 1) + " = " + strExp(Depth - 1) + ")";
    case 3:
      return '(' + boolExp(Depth - 1) + " andalso " + boolExp(Depth - 1) +
             ")";
    case 4:
      return '(' + boolExp(Depth - 1) + " orelse " + boolExp(Depth - 1) +
             ")";
    default:
      return "(not " + boolExp(Depth - 1) + ")";
    }
  }

  std::string strExp(int Depth) {
    if (Depth <= 0 || R.chance(1, 4)) {
      if (!StrVars.empty() && R.chance(1, 2))
        return pick(StrVars);
      static const char *Lits[] = {"\"\"", "\"a\"", "\"xyz\"",
                                   "\"hello world\"", "\"0123456789\""};
      return Lits[R.below(5)];
    }
    switch (R.below(4)) {
    case 0:
      return '(' + strExp(Depth - 1) + " ^ " + strExp(Depth - 1) + ")";
    case 1:
      return "(int_to_string " + intExp(Depth - 1) + ")";
    case 2:
      return "(if " + boolExp(Depth - 1) + " then " + strExp(Depth - 1) +
             " else " + strExp(Depth - 1) + ")";
    default:
      return "(substring " + strExp(Depth - 1) + " 0 0)";
    }
  }
};

} // namespace test
} // namespace silver

#endif // SILVER_TESTS_CML_PROGRAMGEN_H
