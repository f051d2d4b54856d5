//===- hdl/Check.cpp - The checker of the Verilog subset ------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "hdl/Check.h"

#include <algorithm>
#include <map>
#include <optional>
#include <unordered_map>

using namespace silver;
using namespace silver::hdl;

const char *silver::hdl::ruleId(Rule R) {
  switch (R) {
  case Rule::MultiDriver:
    return "hdl-multi-driver";
  case Rule::MixedAssign:
    return "hdl-mixed-assign";
  case Rule::NonLocalIntermediate:
    return "hdl-nonlocal-intermediate";
  case Rule::ReadBeforeWrite:
    return "hdl-read-before-write";
  case Rule::WidthMismatch:
    return "hdl-width-mismatch";
  case Rule::Undeclared:
    return "hdl-undeclared";
  case Rule::InputWrite:
    return "hdl-input-write";
  case Rule::MemBounds:
    return "hdl-mem-bounds";
  case Rule::TypeError:
    return "hdl-type-error";
  }
  return "hdl-unknown";
}

std::string silver::hdl::formatFinding(const Finding &F) {
  std::string Out = ruleId(F.Kind);
  if (F.Process >= 0) {
    Out += " @ process ";
    Out += std::to_string(F.Process);
    Out += ' ';
    Out += F.Path;
  }
  Out += ": ";
  Out += F.Message;
  return Out;
}

namespace {

/// Per-process facts for the cross-process checks, one flag per name id.
struct ProcessFacts {
  std::vector<bool> BlockWr; ///< blocking-assigned variables
  std::vector<bool> NbWr;    ///< non-blocking / memory-write targets
  std::vector<bool> Reads;   ///< every variable or memory read

  static bool has(const std::vector<bool> &Set, unsigned Id) {
    return Id < Set.size() && Set[Id];
  }
  static void add(std::vector<bool> &Set, unsigned Id) {
    if (Id >= Set.size())
      Set.resize(Id + 1);
    Set[Id] = true;
  }
};

/// The single walk: typing rules per expression and statement, then the
/// cross-process rules over the facts collected on the way.  Names are
/// numbered once (declarations first, in order), so the per-read and
/// per-branch bookkeeping works on ids, not strings.
class Walker {
public:
  explicit Walker(const VModule &M) : M(M) {}

  std::vector<Finding> run();

private:
  const VModule &M;
  std::unordered_map<std::string, unsigned> Ids;
  std::vector<std::string> Names;    ///< by id
  std::vector<const VType *> Types;  ///< by id; null when undeclared
  std::vector<bool> IsInput;         ///< by id
  std::vector<Finding> Findings;

  // Walk-local state (valid while checking one process).
  int Proc = -1;
  std::vector<std::string> Path;
  ProcessFacts *Facts = nullptr;
  std::vector<bool> Definite; ///< blocking vars assigned so far, by id

  /// The id of \p Name, numbering it on first sight.
  unsigned id(const std::string &Name) {
    auto [It, Inserted] =
        Ids.try_emplace(Name, static_cast<unsigned>(Names.size()));
    if (Inserted) {
      Names.push_back(Name);
      Types.push_back(nullptr);
      IsInput.push_back(false);
    }
    return It->second;
  }

  void diag(Rule R, std::string Message) {
    Finding F;
    F.Kind = R;
    F.Process = Proc;
    for (const std::string &P : Path) {
      if (!F.Path.empty())
        F.Path += '/';
      F.Path += P;
    }
    F.Message = std::move(Message);
    Findings.push_back(std::move(F));
  }

  /// Collects the write sets of a statement (pre-pass, no findings).
  void collectWrites(const VStmt &S, ProcessFacts &F);

  std::optional<VType> typeOf(const VExp &E);
  void checkStmt(const VStmt &S);
};

void Walker::collectWrites(const VStmt &S, ProcessFacts &F) {
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
    ProcessFacts::add(F.BlockWr, id(S.Lhs));
    return;
  case VStmtKind::NonBlockingAssign:
  case VStmtKind::MemWrite:
    ProcessFacts::add(F.NbWr, id(S.Lhs));
    return;
  }
}

std::optional<VType> Walker::typeOf(const VExp &E) {
  switch (E.Kind) {
  case VExpKind::ConstBool:
    return VType::boolean();
  case VExpKind::ConstVec:
    return VType::vec(E.Width);
  case VExpKind::Var: {
    unsigned Id = id(E.Name);
    ProcessFacts::add(Facts->Reads, Id);
    const VType *T = Types[Id];
    if (!T) {
      diag(Rule::Undeclared, "read of undeclared variable '" + E.Name + "'");
      return std::nullopt;
    }
    if (T->K == VType::Kind::Mem) {
      diag(Rule::TypeError,
           "memory '" + E.Name + "' used as a plain variable");
      return std::nullopt;
    }
    if (ProcessFacts::has(Facts->BlockWr, Id) &&
        !ProcessFacts::has(Definite, Id))
      diag(Rule::ReadBeforeWrite,
           "blocking intermediate '" + E.Name +
               "' read before it is assigned in this process");
    return *T;
  }
  case VExpKind::MemRead: {
    unsigned Id = id(E.Name);
    ProcessFacts::add(Facts->Reads, Id);
    const VType *T = Types[Id];
    if (!T) {
      diag(Rule::Undeclared,
           "memory read of undeclared '" + E.Name + "'");
      return std::nullopt;
    }
    if (T->K != VType::Kind::Mem) {
      diag(Rule::TypeError,
           "memory read of non-memory '" + E.Name + "'");
      return std::nullopt;
    }
    std::optional<VType> Idx = typeOf(*E.Args[0]);
    if (Idx && Idx->K != VType::Kind::Vec)
      diag(Rule::TypeError, "memory index must be a vector");
    if (E.Args[0]->Kind == VExpKind::ConstVec &&
        E.Args[0]->Bits >= T->Depth)
      diag(Rule::MemBounds,
           "constant index " + std::to_string(E.Args[0]->Bits) +
               " out of range for '" + E.Name + "' (depth " +
               std::to_string(T->Depth) + ")");
    return VType::vec(T->Width);
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
        diag(Rule::TypeError, "boolean operand in a vector operator");
        return std::nullopt;
      }
      return E.BOp == BinaryOp::Eq ? VType::boolean() : *A;
    }
    bool ShiftOp = E.BOp == BinaryOp::Shl || E.BOp == BinaryOp::ShrL ||
                   E.BOp == BinaryOp::ShrA;
    if (!ShiftOp && A->Width != B->Width)
      diag(Rule::WidthMismatch,
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
      diag(Rule::TypeError,
           "slice base must be a variable (synthesisable subset)");
      return std::nullopt;
    }
    std::optional<VType> A = typeOf(*E.Args[0]);
    if (!A)
      return std::nullopt;
    if (A->K != VType::Kind::Vec || E.Hi < E.Lo || E.Hi >= A->Width) {
      diag(Rule::TypeError, "bad slice bounds");
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
      diag(Rule::TypeError, "bad concatenation");
      return std::nullopt;
    }
    return VType::vec(A->Width + B->Width);
  }
  case VExpKind::Cond: {
    std::optional<VType> C = typeOf(*E.Args[0]);
    if (C && C->K != VType::Kind::Bool)
      diag(Rule::TypeError, "condition must be boolean");
    std::optional<VType> T = typeOf(*E.Args[1]);
    std::optional<VType> F = typeOf(*E.Args[2]);
    if (!T || !F)
      return std::nullopt;
    if (!(*T == *F)) {
      if (T->K == VType::Kind::Vec && F->K == VType::Kind::Vec)
        diag(Rule::WidthMismatch,
             "conditional branches have widths " +
                 std::to_string(T->Width) + " vs " +
                 std::to_string(F->Width));
      else
        diag(Rule::TypeError,
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
      diag(Rule::TypeError, "bad width extension");
      return std::nullopt;
    }
    return VType::vec(E.Width);
  }
  case VExpKind::BoolToVec: {
    std::optional<VType> A = typeOf(*E.Args[0]);
    if (A && A->K != VType::Kind::Bool)
      diag(Rule::TypeError, "bool-to-vec of a non-boolean");
    return VType::vec(1);
  }
  case VExpKind::VecToBool: {
    std::optional<VType> A = typeOf(*E.Args[0]);
    if (A && A->K != VType::Kind::Vec)
      diag(Rule::TypeError, "vec-to-bool of a non-vector");
    return VType::boolean();
  }
  }
  return std::nullopt;
}

void Walker::checkStmt(const VStmt &S) {
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
    // A boolean or a vector (taken when nonzero): typeOf never yields a
    // memory type.
    typeOf(*S.Cond);
    std::vector<bool> Before = Definite;
    Path.push_back("then");
    checkStmt(*S.Then);
    Path.pop_back();
    std::vector<bool> AfterThen = std::move(Definite);
    Definite = std::move(Before);
    if (S.Else) {
      Path.push_back("else");
      checkStmt(*S.Else);
      Path.pop_back();
    }
    // Definitely assigned after the If: assigned on both paths.
    Definite.resize(std::min(Definite.size(), AfterThen.size()));
    for (size_t I = 0; I != Definite.size(); ++I)
      Definite[I] = Definite[I] && AfterThen[I];
    return;
  }
  case VStmtKind::BlockingAssign:
  case VStmtKind::NonBlockingAssign: {
    std::optional<VType> RT = typeOf(*S.Rhs);
    unsigned Id = id(S.Lhs);
    const VType *T = Types[Id];
    if (!T) {
      diag(Rule::Undeclared,
           "assignment to undeclared '" + S.Lhs + "'");
      return;
    }
    if (IsInput[Id])
      diag(Rule::InputWrite,
           "assignment to input port '" + S.Lhs + "'");
    if (T->K == VType::Kind::Mem) {
      diag(Rule::TypeError,
           "whole-memory assignment to '" + S.Lhs + "'");
      return;
    }
    if (RT && !(*RT == *T)) {
      if (RT->K == VType::Kind::Vec && T->K == VType::Kind::Vec)
        diag(Rule::WidthMismatch,
             "assignment to '" + S.Lhs + "' ([" +
                 std::to_string(T->Width) + "]) from width " +
                 std::to_string(RT->Width));
      else
        diag(Rule::TypeError,
             "assignment type mismatch on '" + S.Lhs + "'");
    }
    if (S.Kind == VStmtKind::BlockingAssign)
      ProcessFacts::add(Definite, Id);
    return;
  }
  case VStmtKind::MemWrite: {
    const VType *T = Types[id(S.Lhs)];
    if (!T) {
      diag(Rule::Undeclared,
           "memory write to undeclared '" + S.Lhs + "'");
      return;
    }
    if (T->K != VType::Kind::Mem) {
      diag(Rule::TypeError,
           "memory write to non-memory '" + S.Lhs + "'");
      return;
    }
    typeOf(*S.Index);
    if (S.Index->Kind == VExpKind::ConstVec &&
        S.Index->Bits >= T->Depth)
      diag(Rule::MemBounds,
           "constant index " + std::to_string(S.Index->Bits) +
               " out of range for '" + S.Lhs + "' (depth " +
               std::to_string(T->Depth) + ")");
    std::optional<VType> RT = typeOf(*S.Rhs);
    if (RT && (RT->K != VType::Kind::Vec || RT->Width != T->Width))
      diag(Rule::WidthMismatch,
           "memory write width mismatch on '" + S.Lhs + "'");
    return;
  }
  }
}

std::vector<Finding> Walker::run() {
  // Module level: declaration table.
  auto Declare = [&](const std::string &Name, const VType &T) {
    unsigned Id = id(Name);
    if (Types[Id])
      return false;
    Types[Id] = &T;
    return true;
  };
  for (const VPort &P : M.Ports) {
    if (P.Type.K == VType::Kind::Mem)
      diag(Rule::TypeError, "memory-typed port '" + P.Name + "'");
    if (!Declare(P.Name, P.Type))
      diag(Rule::TypeError, "duplicate port '" + P.Name + "'");
    if (P.D == VPort::Dir::Input)
      IsInput[id(P.Name)] = true;
  }
  for (const VDecl &D : M.Decls)
    if (!Declare(D.Name, D.Type))
      diag(Rule::TypeError, "duplicate declaration '" + D.Name + "'");

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
  std::map<std::string, unsigned> NbWritten; ///< name -> id
  for (size_t I = 0; I != AllFacts.size(); ++I) {
    const ProcessFacts &F = AllFacts[I];
    for (unsigned Id = 0; Id != Names.size(); ++Id) {
      bool Block = ProcessFacts::has(F.BlockWr, Id);
      bool Nb = ProcessFacts::has(F.NbWr, Id);
      if (Block)
        BlockWriters[Names[Id]].push_back(I);
      if (Block || Nb)
        Writers[Names[Id]].push_back(I);
      if (Nb)
        NbWritten.emplace(Names[Id], Id);
    }
  }
  for (const auto &[Name, Procs] : Writers)
    if (Procs.size() > 1) {
      std::string Which;
      for (size_t P : Procs)
        Which += (Which.empty() ? "" : ", ") + std::to_string(P);
      diag(Rule::MultiDriver,
           "variable '" + Name + "' driven by processes " + Which);
    }
  for (const auto &[Name, BProcs] : BlockWriters) {
    if (NbWritten.count(Name))
      diag(Rule::MixedAssign,
           "variable '" + Name +
               "' written both blocking (intermediate) and non-blocking "
               "(state)");
    unsigned Id = Ids.at(Name);
    for (size_t I = 0; I != AllFacts.size(); ++I)
      if (ProcessFacts::has(AllFacts[I].Reads, Id) &&
          std::find(BProcs.begin(), BProcs.end(), I) == BProcs.end())
        diag(Rule::NonLocalIntermediate,
             "blocking intermediate '" + Name +
                 "' written by process " + std::to_string(BProcs[0]) +
                 " but read by process " + std::to_string(I));
  }
  return std::move(Findings);
}

} // namespace

std::vector<Finding> silver::hdl::checkModule(const VModule &M) {
  return Walker(M).run();
}

Result<void> silver::hdl::typeCheck(const VModule &M) {
  for (const Finding &F : checkModule(M)) {
    // The stricter rules: verilog_sem, FastSim and the generated C++ all
    // define modules that break them.
    bool Stricter = F.Kind == Rule::MixedAssign ||
                    F.Kind == Rule::NonLocalIntermediate ||
                    F.Kind == Rule::ReadBeforeWrite ||
                    F.Kind == Rule::MemBounds;
    if (!Stricter)
      return Error(formatFinding(F));
  }
  return {};
}
