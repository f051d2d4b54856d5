//===- hdl/compile/Codegen.cpp - Verilog-to-C++ code generator ---------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "hdl/compile/Codegen.h"

#include "hdl/Semantics.h"
#include "support/Bits.h"

#include <functional>
#include <set>

using namespace silver;
using namespace silver::hdl;

namespace {

/// An emitted expression: the C++ text plus the subset-level result
/// width (0 = bool), which drives masking exactly as the reference
/// semantics (and FastSim's tape) does.
struct EmittedExp {
  std::string Text;
  unsigned Width = 0;
};

std::string num(uint64_t V) {
  return "UINT64_C(" + std::to_string(V) + ")";
}

/// Emission context for one module.  Statement latch locals are numbered
/// globally (across processes) so the commit section can replay them in
/// global program order — process order, then pre-order within a process
/// — which equals execution order because the statement language has no
/// loops.
struct Emitter {
  explicit Emitter(const CompiledLayout &Layout) : Layout(Layout) {}

  const CompiledLayout &Layout;
  /// Single-process modules write blocking assigns through directly;
  /// see the file comment of Codegen.h.
  bool DirectBlocking = false;

  std::string Decls;   ///< latch locals, declared before the bodies
  std::string Body;    ///< process bodies
  std::string Commit;  ///< end-of-cycle commit section
  int NextId = 0;      ///< statement latch numbering

  /// Slots the current process assigns with blocking assigns; reads of
  /// these go through the per-process shadow locals.
  std::set<int> Shadowed;

  std::string slotRef(int Slot) const {
    return "V[" + std::to_string(Slot) + "]";
  }

  std::string varRef(int Slot) const {
    if (!DirectBlocking && Shadowed.count(Slot))
      return "S" + std::to_string(Slot);
    return slotRef(Slot);
  }

  EmittedExp emitExp(const VExp &E);
  void emitStmt(const VStmt &S, int Indent);
  void emitProcess(const VStmt &Body);
};

EmittedExp Emitter::emitExp(const VExp &E) {
  switch (E.Kind) {
  case VExpKind::ConstBool:
    return {E.Bool ? "UINT64_C(1)" : "UINT64_C(0)", 0};
  case VExpKind::ConstVec:
    return {num(E.Bits), E.Width};
  case VExpKind::Var: {
    int Slot = Layout.ScalarSlots.at(E.Name);
    return {varRef(Slot), Layout.SlotWidths[Slot]};
  }
  case VExpKind::MemRead: {
    int Mem = Layout.MemSlots.at(E.Name);
    EmittedExp Idx = emitExp(*E.Args[0]);
    return {"memrd(M[" + std::to_string(Mem) + "], " +
                num(Layout.MemDepths[Mem]) + ", " + Idx.Text + ", Oob)",
            Layout.MemWidths[Mem]};
  }
  case VExpKind::Binary: {
    EmittedExp A = emitExp(*E.Args[0]);
    EmittedExp B = emitExp(*E.Args[1]);
    std::string W = std::to_string(A.Width);
    switch (E.BOp) {
    case BinaryOp::Add:
      return {"mask(" + W + ", (" + A.Text + ") + (" + B.Text + "))",
              A.Width};
    case BinaryOp::Sub:
      return {"mask(" + W + ", (" + A.Text + ") - (" + B.Text + "))",
              A.Width};
    case BinaryOp::Mul:
      return {"mask(" + W + ", (" + A.Text + ") * (" + B.Text + "))",
              A.Width};
    case BinaryOp::And:
      return {"((" + A.Text + ") & (" + B.Text + "))", A.Width};
    case BinaryOp::Or:
      return {"((" + A.Text + ") | (" + B.Text + "))", A.Width};
    case BinaryOp::Xor:
      return {"((" + A.Text + ") ^ (" + B.Text + "))", A.Width};
    case BinaryOp::Eq:
      return {"uint64_t((" + A.Text + ") == (" + B.Text + "))", 0};
    case BinaryOp::LtU:
      return {"uint64_t((" + A.Text + ") < (" + B.Text + "))", 0};
    case BinaryOp::LtS:
      return {"uint64_t(sgn(" + W + ", " + A.Text + ") < sgn(" + W + ", " +
                  B.Text + "))",
              0};
    case BinaryOp::Shl:
      return {"shlOp(" + W + ", " + A.Text + ", " + B.Text + ")", A.Width};
    case BinaryOp::ShrL:
      return {"shrlOp(" + W + ", " + A.Text + ", " + B.Text + ")", A.Width};
    case BinaryOp::ShrA:
      return {"shraOp(" + W + ", " + A.Text + ", " + B.Text + ")", A.Width};
    }
    return {"UINT64_C(0)", 0};
  }
  case VExpKind::Unary: {
    EmittedExp A = emitExp(*E.Args[0]);
    if (E.UOp == UnaryOp::Not) {
      if (A.Width == 0)
        return {"((" + A.Text + ") ? UINT64_C(0) : UINT64_C(1))", 0};
      return {"mask(" + std::to_string(A.Width) + ", ~(" + A.Text + "))",
              A.Width};
    }
    return {"uint64_t((" + A.Text + ") == 0)", 0};
  }
  case VExpKind::Slice: {
    EmittedExp A = emitExp(*E.Args[0]);
    unsigned W = E.Hi - E.Lo + 1;
    return {"mask(" + std::to_string(W) + ", (" + A.Text + ") >> " +
                std::to_string(E.Lo) + ")",
            W};
  }
  case VExpKind::Concat: {
    EmittedExp Hi = emitExp(*E.Args[0]);
    EmittedExp Lo = emitExp(*E.Args[1]);
    return {"(((" + Hi.Text + ") << " + std::to_string(Lo.Width) + ") | (" +
                Lo.Text + "))",
            Hi.Width + Lo.Width};
  }
  case VExpKind::Cond: {
    EmittedExp C = emitExp(*E.Args[0]);
    EmittedExp T = emitExp(*E.Args[1]);
    EmittedExp F = emitExp(*E.Args[2]);
    return {"((" + C.Text + ") ? (" + T.Text + ") : (" + F.Text + "))",
            T.Width};
  }
  case VExpKind::ZeroExt: {
    EmittedExp A = emitExp(*E.Args[0]);
    return {A.Text, E.Width};
  }
  case VExpKind::SignExt: {
    EmittedExp A = emitExp(*E.Args[0]);
    return {"mask(" + std::to_string(E.Width) + ", uint64_t(sgn(" +
                std::to_string(A.Width) + ", " + A.Text + ")))",
            E.Width};
  }
  case VExpKind::BoolToVec: {
    EmittedExp A = emitExp(*E.Args[0]);
    return {"((" + A.Text + ") & 1)", 1};
  }
  case VExpKind::VecToBool: {
    EmittedExp A = emitExp(*E.Args[0]);
    return {"uint64_t((" + A.Text + ") != 0)", 0};
  }
  }
  return {"UINT64_C(0)", 0};
}

void Emitter::emitStmt(const VStmt &S, int Indent) {
  std::string Pad(static_cast<size_t>(Indent) * 2, ' ');
  switch (S.Kind) {
  case VStmtKind::Block:
    for (const VStmtPtr &Sub : S.Stmts)
      emitStmt(*Sub, Indent);
    return;
  case VStmtKind::If: {
    EmittedExp C = emitExp(*S.Cond);
    Body += Pad + "if (" + C.Text + ") {\n";
    emitStmt(*S.Then, Indent + 1);
    if (S.Else) {
      Body += Pad + "} else {\n";
      emitStmt(*S.Else, Indent + 1);
    }
    Body += Pad + "}\n";
    return;
  }
  case VStmtKind::BlockingAssign: {
    int Slot = Layout.ScalarSlots.at(S.Lhs);
    EmittedExp R = emitExp(*S.Rhs);
    if (DirectBlocking) {
      Body += Pad + slotRef(Slot) + " = " + R.Text + ";\n";
      return;
    }
    int Id = NextId++;
    std::string Sh = "S" + std::to_string(Slot);
    Decls += "  uint64_t B" + std::to_string(Id) +
             " = 0; bool Bs" + std::to_string(Id) + " = false;\n";
    Body += Pad + Sh + " = " + R.Text + ";\n";
    Body += Pad + "B" + std::to_string(Id) + " = " + Sh + "; Bs" +
            std::to_string(Id) + " = true;\n";
    Commit += "  if (Bs" + std::to_string(Id) + ") " + slotRef(Slot) +
              " = B" + std::to_string(Id) + ";\n";
    return;
  }
  case VStmtKind::NonBlockingAssign: {
    EmittedExp R = emitExp(*S.Rhs);
    int Id = NextId++;
    Decls += "  uint64_t N" + std::to_string(Id) +
             " = 0; bool Ns" + std::to_string(Id) + " = false;\n";
    Body += Pad + "N" + std::to_string(Id) + " = " + R.Text + "; Ns" +
            std::to_string(Id) + " = true;\n";
    // Non-blocking scalar commits run after the blocking commits; both
    // sections are assembled in that order in generateCpp.
    return;
  }
  case VStmtKind::MemWrite: {
    EmittedExp Idx = emitExp(*S.Index);
    EmittedExp R = emitExp(*S.Rhs);
    int Id = NextId++;
    std::string N = std::to_string(Id);
    Decls += "  uint64_t Mi" + N + " = 0, Mv" + N + " = 0; bool Ms" + N +
             " = false;\n";
    Body += Pad + "Mi" + N + " = " + Idx.Text + "; Mv" + N + " = " +
            R.Text + "; Ms" + N + " = true;\n";
    return;
  }
  }
}

void Emitter::emitProcess(const VStmt &ProcBody) {
  Shadowed.clear();
  if (!DirectBlocking)
    for (const std::string &Name : blockingTargets(ProcBody))
      Shadowed.insert(Layout.ScalarSlots.at(Name));
  Body += "  { // process\n";
  // The shadows give this process its own blocking writes while later
  // processes keep seeing cycle-start state.
  for (int Slot : Shadowed)
    Body += "    uint64_t S" + std::to_string(Slot) + " = " +
            slotRef(Slot) + ";\n";
  emitStmt(ProcBody, 2);
  Body += "  }\n";
}

} // namespace

Result<GeneratedModule> silver::hdl::generateCpp(const VModule &M) {
  if (Result<void> T = typeCheck(M); !T)
    return T.error();

  GeneratedModule G;
  CompiledLayout &L = G.Layout;
  auto Declare = [&L](const std::string &Name, const VType &T) {
    if (T.K == VType::Kind::Mem) {
      int Id = static_cast<int>(L.MemWidths.size());
      L.MemWidths.push_back(T.Width);
      L.MemDepths.push_back(T.Depth);
      L.MemSlots[Name] = Id;
      return;
    }
    int Slot = static_cast<int>(L.SlotWidths.size());
    L.SlotWidths.push_back(T.K == VType::Kind::Bool ? 0 : T.Width);
    L.ScalarSlots[Name] = Slot;
  };
  for (const VPort &P : M.Ports) {
    Declare(P.Name, P.Type);
    if (P.D == VPort::Dir::Input)
      L.InputSlots.emplace_back(P.Name, L.ScalarSlots[P.Name]);
  }
  for (const VDecl &D : M.Decls)
    Declare(D.Name, D.Type);

  Emitter E(L);
  E.DirectBlocking = M.Processes.size() <= 1;

  // NBA latch commits replay the queue of the reference semantics: the
  // emitter appends one guarded store per static assignment in global
  // program order.  Scalar commits and memory commits are partitioned
  // (scalars first) — legal because they target disjoint storage.
  std::string NbaCommit;
  std::string MemCommit;
  for (const VProcess &P : M.Processes)
    E.emitProcess(*P.Body);

  // Reconstruct the NBA/mem commit sections with a second traversal
  // using the same global numbering the emitter assigned (the emitter
  // itself only fills the blocking commit stream).
  int Id = 0;
  bool Direct = E.DirectBlocking;
  std::function<void(const VStmt &)> Walk = [&](const VStmt &S) {
    switch (S.Kind) {
    case VStmtKind::Block:
      for (const VStmtPtr &Sub : S.Stmts)
        Walk(*Sub);
      return;
    case VStmtKind::If:
      Walk(*S.Then);
      if (S.Else)
        Walk(*S.Else);
      return;
    case VStmtKind::BlockingAssign:
      if (!Direct)
        ++Id;
      return;
    case VStmtKind::NonBlockingAssign: {
      int Slot = L.ScalarSlots.at(S.Lhs);
      std::string N = std::to_string(Id++);
      NbaCommit += "  if (Ns" + N + ") V[" + std::to_string(Slot) +
                   "] = N" + N + ";\n";
      return;
    }
    case VStmtKind::MemWrite: {
      int Mem = L.MemSlots.at(S.Lhs);
      std::string N = std::to_string(Id++);
      MemCommit += "  if (Ms" + N + ") {\n";
      MemCommit += "    if (Mi" + N + " >= " + num(L.MemDepths[Mem]) +
                   ") return 1;\n";
      MemCommit += "    M[" + std::to_string(Mem) + "][Mi" + N +
                   "] = Mv" + N + ";\n";
      MemCommit += "  }\n";
      return;
    }
    }
  };
  for (const VProcess &P : M.Processes)
    Walk(*P.Body);

  std::string Src;
  Src += "// Generated by SilverStack hdl/compile for module '" + M.Name +
         "'.  Do not edit.\n";
  Src += "// One call = one clock cycle of the Verilog-subset semantics;\n";
  Src += "// checked against the interpreter by the differential tests.\n";
  Src += "#include <cstdint>\n\n";
  Src += "namespace {\n\n";
  Src += "inline uint64_t mask(unsigned W, uint64_t X) {\n";
  Src += "  return W >= 64 ? X : (X & ((uint64_t(1) << W) - 1));\n}\n\n";
  Src += "inline int64_t sgn(unsigned W, uint64_t X) {\n";
  Src += "  if (W == 0)\n    return 0;\n";
  Src += "  uint64_t S = uint64_t(1) << (W - 1);\n";
  Src += "  return static_cast<int64_t>((X ^ S) - S);\n}\n\n";
  Src += "inline uint64_t shlOp(unsigned W, uint64_t A, uint64_t B) {\n";
  Src += "  return B >= W ? 0 : mask(W, A << B);\n}\n\n";
  Src += "inline uint64_t shrlOp(unsigned W, uint64_t A, uint64_t B) {\n";
  Src += "  return B >= W ? 0 : (A >> B);\n}\n\n";
  Src += "inline uint64_t shraOp(unsigned W, uint64_t A, uint64_t B) {\n";
  Src += "  int64_t S = sgn(W, A);\n";
  Src += "  if (B >= W)\n    return mask(W, S < 0 ? ~uint64_t(0) : 0);\n";
  Src += "  return mask(W, static_cast<uint64_t>(S >> B));\n}\n\n";
  Src += "inline uint64_t memrd(const uint64_t *M, uint64_t Depth,\n";
  Src += "                      uint64_t Idx, bool &Oob) {\n";
  Src += "  if (Idx < Depth)\n    return M[Idx];\n";
  Src += "  Oob = true;\n  return 0;\n}\n\n";
  Src += "} // namespace\n\n";
  Src += "extern \"C\" {\n\n";
  Src += "uint32_t silver_hdl_abi_version(void) { return " +
         std::to_string(CompiledAbiVersion) + "; }\n\n";
  Src += "uint64_t silver_hdl_design_hash(void) { return "
         "SILVER_DESIGN_HASH; }\n\n";
  Src += "int silver_hdl_cycle(uint64_t *V, uint64_t *const *M) {\n";
  Src += "  (void)M;\n";
  Src += "  bool Oob = false;\n";
  Src += E.Decls;
  Src += E.Body;
  Src += "  // a memory read out of range fails the cycle before any commit\n";
  Src += "  if (Oob)\n    return 2;\n";
  Src += "  // end-of-cycle commit: blocking results, then the\n";
  Src += "  // non-blocking queue (scalars, then memory writes)\n";
  Src += E.Commit;
  Src += NbaCommit;
  Src += MemCommit;
  Src += "  return 0;\n}\n\n";
  Src += "} // extern \"C\"\n";

  // The design hash covers the source with the placeholder still in
  // place (the hash cannot cover itself), then gets substituted in.
  G.DesignHash = fnv1a64(reinterpret_cast<const uint8_t *>(Src.data()),
                         Src.size());
  std::string Token = "SILVER_DESIGN_HASH";
  size_t At = Src.find(Token);
  Src.replace(At, Token.size(), num(G.DesignHash));
  G.Source = std::move(Src);
  return G;
}
