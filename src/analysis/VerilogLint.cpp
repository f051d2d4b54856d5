//===- analysis/VerilogLint.cpp - Linter for the Verilog subset ------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "analysis/VerilogLint.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>

using namespace silver;
using namespace silver::hdl;
using namespace silver::analysis;

const char *silver::analysis::lintRuleId(LintRule R) {
  switch (R) {
  case LintRule::MultiDriver:
    return "hdl-multi-driver";
  case LintRule::MixedAssign:
    return "hdl-mixed-assign";
  case LintRule::NonLocalIntermediate:
    return "hdl-nonlocal-intermediate";
  case LintRule::ReadBeforeWrite:
    return "hdl-read-before-write";
  case LintRule::WidthMismatch:
    return "hdl-width-mismatch";
  case LintRule::Undeclared:
    return "hdl-undeclared";
  case LintRule::InputWrite:
    return "hdl-input-write";
  case LintRule::MemBounds:
    return "hdl-mem-bounds";
  case LintRule::TypeError:
    return "hdl-type-error";
  }
  return "hdl-unknown";
}

std::string silver::analysis::formatDiag(const LintDiag &D) {
  std::string Out = lintRuleId(D.Rule);
  if (D.Process >= 0) {
    Out += " @ process ";
    Out += std::to_string(D.Process);
    Out += ' ';
    Out += D.Path;
  }
  Out += ": ";
  Out += D.Message;
  return Out;
}

namespace {

/// Per-process fact collection for the cross-process checks.
struct ProcessFacts {
  std::set<std::string> BlockWr; ///< blocking-assigned variables
  std::set<std::string> NbWr;    ///< non-blocking / memory-write targets
  std::set<std::string> Reads;   ///< every variable or memory read
};

class Linter {
public:
  explicit Linter(const VModule &M) : M(M) {}

  std::vector<LintDiag> run();

private:
  const VModule &M;
  std::map<std::string, VType> Types;
  std::set<std::string> InputNames;
  std::vector<LintDiag> Diags;

  // Walk-local state (valid while linting one process).
  int Proc = -1;
  std::vector<std::string> Path;
  ProcessFacts *Facts = nullptr;
  std::set<std::string> Definite; ///< blocking vars assigned so far

  void diag(LintRule R, std::string Message) {
    LintDiag D;
    D.Rule = R;
    D.Process = Proc;
    for (const std::string &P : Path) {
      if (!D.Path.empty())
        D.Path += '/';
      D.Path += P;
    }
    D.Message = std::move(Message);
    Diags.push_back(std::move(D));
  }

  /// Collects the write sets of a statement (pre-pass, no diagnostics).
  static void collectWrites(const VStmt &S, ProcessFacts &F);

  std::optional<VType> typeOf(const VExp &E);
  void checkStmt(const VStmt &S);
};

void Linter::collectWrites(const VStmt &S, ProcessFacts &F) {
  switch (S.Kind) {
  case VStmtKind::Block:
    for (const VStmtPtr &Sub : S.Stmts)
      collectWrites(*Sub, F);
    return;
  case VStmtKind::If:
    collectWrites(*S.Then, F);
    if (S.Else)
      collectWrites(*S.Else, F);
    return;
  case VStmtKind::BlockingAssign:
    F.BlockWr.insert(S.Lhs);
    return;
  case VStmtKind::NonBlockingAssign:
  case VStmtKind::MemWrite:
    F.NbWr.insert(S.Lhs);
    return;
  }
}

std::optional<VType> Linter::typeOf(const VExp &E) {
  switch (E.Kind) {
  case VExpKind::ConstBool:
    return VType::boolean();
  case VExpKind::ConstVec:
    return VType::vec(E.Width);
  case VExpKind::Var: {
    Facts->Reads.insert(E.Name);
    auto It = Types.find(E.Name);
    if (It == Types.end()) {
      diag(LintRule::Undeclared, "read of undeclared variable '" + E.Name +
                                     "'");
      return std::nullopt;
    }
    if (It->second.K == VType::Kind::Mem) {
      diag(LintRule::TypeError,
           "memory '" + E.Name + "' used as a plain variable");
      return std::nullopt;
    }
    if (Facts->BlockWr.count(E.Name) && !Definite.count(E.Name))
      diag(LintRule::ReadBeforeWrite,
           "blocking intermediate '" + E.Name +
               "' read before it is assigned in this process");
    return It->second;
  }
  case VExpKind::MemRead: {
    Facts->Reads.insert(E.Name);
    auto It = Types.find(E.Name);
    if (It == Types.end()) {
      diag(LintRule::Undeclared,
           "memory read of undeclared '" + E.Name + "'");
      return std::nullopt;
    }
    if (It->second.K != VType::Kind::Mem) {
      diag(LintRule::TypeError,
           "memory read of non-memory '" + E.Name + "'");
      return std::nullopt;
    }
    std::optional<VType> Idx = typeOf(*E.Args[0]);
    if (Idx && Idx->K != VType::Kind::Vec)
      diag(LintRule::TypeError, "memory index must be a vector");
    if (E.Args[0]->Kind == VExpKind::ConstVec &&
        E.Args[0]->Bits >= It->second.Depth)
      diag(LintRule::MemBounds,
           "constant index " + std::to_string(E.Args[0]->Bits) +
               " out of range for '" + E.Name + "' (depth " +
               std::to_string(It->second.Depth) + ")");
    return VType::vec(It->second.Width);
  }
  case VExpKind::Binary: {
    std::optional<VType> A = typeOf(*E.Args[0]);
    std::optional<VType> B = typeOf(*E.Args[1]);
    if (!A || !B)
      return std::nullopt;
    bool BoolOk = E.BOp == BinaryOp::And || E.BOp == BinaryOp::Or ||
                  E.BOp == BinaryOp::Xor || E.BOp == BinaryOp::Eq;
    if (A->K == VType::Kind::Bool || B->K == VType::Kind::Bool) {
      if (!(A->K == VType::Kind::Bool && B->K == VType::Kind::Bool &&
            BoolOk)) {
        diag(LintRule::TypeError, "boolean operand in a vector operator");
        return std::nullopt;
      }
      return E.BOp == BinaryOp::Eq ? VType::boolean() : *A;
    }
    bool ShiftOp = E.BOp == BinaryOp::Shl || E.BOp == BinaryOp::ShrL ||
                   E.BOp == BinaryOp::ShrA;
    if (!ShiftOp && A->Width != B->Width)
      diag(LintRule::WidthMismatch,
           "width mismatch in binary operator: " +
               std::to_string(A->Width) + " vs " +
               std::to_string(B->Width));
    if (E.BOp == BinaryOp::Eq || E.BOp == BinaryOp::LtU ||
        E.BOp == BinaryOp::LtS)
      return VType::boolean();
    return *A;
  }
  case VExpKind::Unary: {
    std::optional<VType> A = typeOf(*E.Args[0]);
    if (!A)
      return std::nullopt;
    if (E.UOp == UnaryOp::LogicNot)
      return VType::boolean();
    return *A;
  }
  case VExpKind::Slice: {
    if (E.Args[0]->Kind != VExpKind::Var &&
        E.Args[0]->Kind != VExpKind::MemRead) {
      diag(LintRule::TypeError,
           "slice base must be a variable (synthesisable subset)");
      return std::nullopt;
    }
    std::optional<VType> A = typeOf(*E.Args[0]);
    if (!A)
      return std::nullopt;
    if (A->K != VType::Kind::Vec || E.Hi < E.Lo || E.Hi >= A->Width) {
      diag(LintRule::TypeError, "bad slice bounds");
      return std::nullopt;
    }
    return VType::vec(E.Hi - E.Lo + 1);
  }
  case VExpKind::Concat: {
    std::optional<VType> A = typeOf(*E.Args[0]);
    std::optional<VType> B = typeOf(*E.Args[1]);
    if (!A || !B)
      return std::nullopt;
    if (A->K != VType::Kind::Vec || B->K != VType::Kind::Vec ||
        A->Width + B->Width > 64) {
      diag(LintRule::TypeError, "bad concatenation");
      return std::nullopt;
    }
    return VType::vec(A->Width + B->Width);
  }
  case VExpKind::Cond: {
    std::optional<VType> C = typeOf(*E.Args[0]);
    if (C && C->K != VType::Kind::Bool)
      diag(LintRule::TypeError, "condition must be boolean");
    std::optional<VType> T = typeOf(*E.Args[1]);
    std::optional<VType> F = typeOf(*E.Args[2]);
    if (!T || !F)
      return std::nullopt;
    if (!(*T == *F)) {
      if (T->K == VType::Kind::Vec && F->K == VType::Kind::Vec)
        diag(LintRule::WidthMismatch,
             "conditional branches have widths " +
                 std::to_string(T->Width) + " vs " +
                 std::to_string(F->Width));
      else
        diag(LintRule::TypeError,
             "conditional branches have different types");
    }
    return *T;
  }
  case VExpKind::ZeroExt:
  case VExpKind::SignExt: {
    std::optional<VType> A = typeOf(*E.Args[0]);
    if (!A)
      return std::nullopt;
    if (A->K != VType::Kind::Vec || E.Width < A->Width || E.Width > 64) {
      diag(LintRule::TypeError, "bad width extension");
      return std::nullopt;
    }
    return VType::vec(E.Width);
  }
  case VExpKind::BoolToVec: {
    std::optional<VType> A = typeOf(*E.Args[0]);
    if (A && A->K != VType::Kind::Bool)
      diag(LintRule::TypeError, "bool-to-vec of a non-boolean");
    return VType::vec(1);
  }
  case VExpKind::VecToBool: {
    std::optional<VType> A = typeOf(*E.Args[0]);
    if (A && A->K != VType::Kind::Vec)
      diag(LintRule::TypeError, "vec-to-bool of a non-vector");
    return VType::boolean();
  }
  }
  return std::nullopt;
}

void Linter::checkStmt(const VStmt &S) {
  switch (S.Kind) {
  case VStmtKind::Block: {
    for (size_t I = 0; I != S.Stmts.size(); ++I) {
      Path.push_back('s' + std::to_string(I));
      checkStmt(*S.Stmts[I]);
      Path.pop_back();
    }
    return;
  }
  case VStmtKind::If: {
    std::optional<VType> C = typeOf(*S.Cond);
    if (C && C->K == VType::Kind::Mem)
      diag(LintRule::TypeError, "memory used as a condition");
    std::set<std::string> Before = Definite;
    Path.push_back("then");
    checkStmt(*S.Then);
    Path.pop_back();
    std::set<std::string> AfterThen = std::move(Definite);
    Definite = std::move(Before);
    if (S.Else) {
      Path.push_back("else");
      checkStmt(*S.Else);
      Path.pop_back();
    }
    // Definitely assigned after the If: assigned on both paths.
    std::set<std::string> Meet;
    std::set_intersection(AfterThen.begin(), AfterThen.end(),
                          Definite.begin(), Definite.end(),
                          std::inserter(Meet, Meet.begin()));
    Definite = std::move(Meet);
    return;
  }
  case VStmtKind::BlockingAssign:
  case VStmtKind::NonBlockingAssign: {
    std::optional<VType> RT = typeOf(*S.Rhs);
    auto It = Types.find(S.Lhs);
    if (It == Types.end()) {
      diag(LintRule::Undeclared,
           "assignment to undeclared '" + S.Lhs + "'");
      return;
    }
    if (InputNames.count(S.Lhs))
      diag(LintRule::InputWrite,
           "assignment to input port '" + S.Lhs + "'");
    if (It->second.K == VType::Kind::Mem) {
      diag(LintRule::TypeError,
           "whole-memory assignment to '" + S.Lhs + "'");
      return;
    }
    if (RT && !(*RT == It->second)) {
      if (RT->K == VType::Kind::Vec && It->second.K == VType::Kind::Vec)
        diag(LintRule::WidthMismatch,
             "assignment to '" + S.Lhs + "' ([" +
                 std::to_string(It->second.Width) + "]) from width " +
                 std::to_string(RT->Width));
      else
        diag(LintRule::TypeError,
             "assignment type mismatch on '" + S.Lhs + "'");
    }
    if (S.Kind == VStmtKind::BlockingAssign)
      Definite.insert(S.Lhs);
    return;
  }
  case VStmtKind::MemWrite: {
    auto It = Types.find(S.Lhs);
    if (It == Types.end()) {
      diag(LintRule::Undeclared,
           "memory write to undeclared '" + S.Lhs + "'");
      return;
    }
    if (It->second.K != VType::Kind::Mem) {
      diag(LintRule::TypeError,
           "memory write to non-memory '" + S.Lhs + "'");
      return;
    }
    typeOf(*S.Index);
    if (S.Index->Kind == VExpKind::ConstVec &&
        S.Index->Bits >= It->second.Depth)
      diag(LintRule::MemBounds,
           "constant index " + std::to_string(S.Index->Bits) +
               " out of range for '" + S.Lhs + "' (depth " +
               std::to_string(It->second.Depth) + ")");
    std::optional<VType> RT = typeOf(*S.Rhs);
    if (RT && (RT->K != VType::Kind::Vec || RT->Width != It->second.Width))
      diag(LintRule::WidthMismatch,
           "memory write width mismatch on '" + S.Lhs + "'");
    return;
  }
  }
}

std::vector<LintDiag> Linter::run() {
  // Module level: declaration table.
  for (const VPort &P : M.Ports) {
    if (P.Type.K == VType::Kind::Mem)
      diag(LintRule::TypeError, "memory-typed port '" + P.Name + "'");
    if (!Types.emplace(P.Name, P.Type).second)
      diag(LintRule::TypeError, "duplicate port '" + P.Name + "'");
    if (P.D == VPort::Dir::Input)
      InputNames.insert(P.Name);
  }
  for (const VDecl &D : M.Decls)
    if (!Types.emplace(D.Name, D.Type).second)
      diag(LintRule::TypeError, "duplicate declaration '" + D.Name + "'");

  // Per process.
  std::vector<ProcessFacts> AllFacts(M.Processes.size());
  for (size_t I = 0; I != M.Processes.size(); ++I) {
    Proc = static_cast<int>(I);
    Facts = &AllFacts[I];
    collectWrites(*M.Processes[I].Body, *Facts);
    Path = {"body"};
    Definite.clear();
    checkStmt(*M.Processes[I].Body);
  }
  Proc = -1;
  Path.clear();

  // Cross-process checks, deterministic by variable name.
  std::map<std::string, std::vector<size_t>> Writers;
  std::map<std::string, std::vector<size_t>> BlockWriters;
  std::map<std::string, std::vector<size_t>> NbWriters;
  for (size_t I = 0; I != AllFacts.size(); ++I) {
    for (const std::string &Name : AllFacts[I].BlockWr) {
      Writers[Name].push_back(I);
      BlockWriters[Name].push_back(I);
    }
    for (const std::string &Name : AllFacts[I].NbWr) {
      if (!AllFacts[I].BlockWr.count(Name))
        Writers[Name].push_back(I);
      NbWriters[Name].push_back(I);
    }
  }
  for (const auto &[Name, Procs] : Writers)
    if (Procs.size() > 1) {
      std::string Which;
      for (size_t P : Procs)
        Which += (Which.empty() ? "" : ", ") + std::to_string(P);
      diag(LintRule::MultiDriver, "variable '" + Name +
                                      "' driven by processes " + Which);
    }
  for (const auto &[Name, BProcs] : BlockWriters) {
    if (NbWriters.count(Name))
      diag(LintRule::MixedAssign,
           "variable '" + Name +
               "' written both blocking (intermediate) and non-blocking "
               "(state)");
    for (size_t I = 0; I != AllFacts.size(); ++I)
      if (AllFacts[I].Reads.count(Name) &&
          std::find(BProcs.begin(), BProcs.end(), I) == BProcs.end())
        diag(LintRule::NonLocalIntermediate,
             "blocking intermediate '" + Name +
                 "' written by process " + std::to_string(BProcs[0]) +
                 " but read by process " + std::to_string(I));
  }
  return std::move(Diags);
}

} // namespace

std::vector<LintDiag> silver::analysis::lintModule(const VModule &M) {
  return Linter(M).run();
}
