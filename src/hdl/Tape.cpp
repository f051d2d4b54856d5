//===- hdl/Tape.cpp - Lowering a module to a tape ----------------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "hdl/Tape.h"

#include "hdl/Check.h"

#include <cassert>

using namespace silver;
using namespace silver::hdl;

namespace {

uint64_t maskTo(unsigned Width, uint64_t Bits) {
  return Width >= 64 ? Bits : (Bits & ((uint64_t(1) << Width) - 1));
}

/// The mask a value of subset width \p Width (0 = bool) is kept under.
uint64_t maskOf(unsigned Width) {
  return maskTo(Width == 0 ? 1 : Width, ~uint64_t(0));
}

/// A compiled expression: the slot its value is in and its subset width
/// (0 = bool).
struct Operand {
  uint32_t Slot;
  unsigned Width;
};

constexpr uint32_t NoHint = ~uint32_t(0);

/// Whether \p E only reads a slot, so both arms of a ?: over such
/// operands may be read eagerly.  Zero extension and bool-to-vec are the
/// identity on masked slot values (booleans are 0/1).
bool isLeaf(const VExp &E) {
  switch (E.Kind) {
  case VExpKind::ConstBool:
  case VExpKind::ConstVec:
  case VExpKind::Var:
    return true;
  case VExpKind::ZeroExt:
  case VExpKind::BoolToVec:
    return isLeaf(*E.Args[0]);
  default:
    return false;
  }
}

/// Lowers a type-checked module into a Tape.
class TapeBuilder {
public:
  TapeBuilder(Tape &T, bool ShadowLast)
      : T(T), L(T.Layout), ShadowLast(ShadowLast) {}
  void compileModule(const VModule &M);
  /// Whether the process compiled last has a read that can fail.
  bool CheckedRead = false;

private:
  Tape &T;
  CompiledLayout &L;
  bool ShadowLast; ///< whether the last process keeps shadows too
  std::map<uint64_t, uint32_t> Consts;
  std::vector<uint32_t> Temps; ///< reused from one statement to the next
  size_t TempsInUse = 0;
  /// Named slot -> the slot the current process reads and writes it in.
  std::vector<uint32_t> ShadowOf;
  std::vector<Instr> BlockingCommits;
  std::vector<Instr> NbCommits;

  uint32_t newSlot() {
    T.Slots.push_back(0);
    T.Const.push_back(false);
    return static_cast<uint32_t>(T.Slots.size() - 1);
  }
  uint32_t constSlot(uint64_t Bits);
  uint32_t temp();
  uint32_t emit(Op Code, uint32_t D, uint32_t A = 0, uint32_t B = 0,
                uint64_t Imm = 0, unsigned Sh = 0) {
    T.Code.push_back({Code, static_cast<uint8_t>(Sh), D, A, B, Imm});
    return static_cast<uint32_t>(T.Code.size() - 1);
  }
  /// Whether an index of \p Width bits into memory \p Mem needs a range
  /// check: one no wider than log2 of the depth is always in range.
  bool indexChecked(unsigned Width, int Mem) const {
    return Width >= 64 || (uint64_t(1) << Width) > L.MemDepths[Mem];
  }
  /// Points the jump at \p At to the next instruction emitted.
  void patch(uint32_t At) {
    T.Code[At].D = static_cast<uint32_t>(T.Code.size());
  }

  void declare(const std::string &Name, const VType &Ty);

  Operand compileExp(const VExp &E, uint32_t Hint);
  unsigned compileInto(const VExp &E, uint32_t Dst);
  uint32_t compileCond(const VExp &E);
  void compileStmt(const VStmt &S, bool Conditional);
  void compileProcess(const VStmt &Body, bool Shadowed);
};

} // namespace

uint32_t TapeBuilder::constSlot(uint64_t Bits) {
  auto [It, Inserted] = Consts.emplace(Bits, 0);
  if (Inserted) {
    It->second = newSlot();
    T.Slots[It->second] = Bits;
    T.Const[It->second] = true;
  }
  return It->second;
}

uint32_t TapeBuilder::temp() {
  if (TempsInUse == Temps.size())
    Temps.push_back(newSlot());
  return Temps[TempsInUse++];
}

void TapeBuilder::declare(const std::string &Name, const VType &Ty) {
  if (Ty.K == VType::Kind::Mem) {
    L.MemSlots[Name] = static_cast<int>(L.MemNames.size());
    L.MemNames.push_back(Name);
    L.MemWidths.push_back(Ty.Width);
    L.MemDepths.push_back(Ty.Depth);
    return;
  }
  L.ScalarSlots[Name] = static_cast<int>(newSlot());
  L.SlotWidths.push_back(Ty.K == VType::Kind::Bool ? 0 : Ty.Width);
}

/// Compiles \p E and returns where its value is: a variable's slot, a
/// constant slot, or the destination of its last instruction, which is
/// \p Hint when one is given.  Only the last instruction on each path
/// writes the hint, so a hint may alias a variable \p E reads.
Operand TapeBuilder::compileExp(const VExp &E, uint32_t Hint) {
  auto Dst = [&] { return Hint != NoHint ? Hint : temp(); };
  switch (E.Kind) {
  case VExpKind::ConstBool:
    return {constSlot(E.Bool ? 1 : 0), 0};
  case VExpKind::ConstVec:
    return {constSlot(maskTo(E.Width, E.Bits)), E.Width};
  case VExpKind::Var: {
    int Slot = L.ScalarSlots.at(E.Name);
    return {ShadowOf[Slot], L.SlotWidths[Slot]};
  }
  case VExpKind::MemRead: {
    int Mem = L.MemSlots.at(E.Name);
    Operand Idx = compileExp(*E.Args[0], NoHint);
    uint32_t D = Dst();
    bool Checked = indexChecked(Idx.Width, Mem);
    CheckedRead |= Checked;
    emit(Checked ? Op::MemReadChecked : Op::MemRead, D, Idx.Slot,
         static_cast<uint32_t>(Mem));
    return {D, L.MemWidths[Mem]};
  }
  case VExpKind::Binary: {
    Operand A = compileExp(*E.Args[0], NoHint);
    Operand B = compileExp(*E.Args[1], NoHint);
    unsigned W = A.Width;
    uint64_t Mask = maskOf(W);
    uint32_t D = Dst();
    switch (E.BOp) {
    case BinaryOp::Add:
      emit(Op::Add, D, A.Slot, B.Slot, Mask);
      return {D, W};
    case BinaryOp::Sub:
      emit(Op::Sub, D, A.Slot, B.Slot, Mask);
      return {D, W};
    case BinaryOp::Mul:
      emit(Op::Mul, D, A.Slot, B.Slot, Mask);
      return {D, W};
    case BinaryOp::And:
      emit(Op::And, D, A.Slot, B.Slot);
      return {D, W};
    case BinaryOp::Or:
      emit(Op::Or, D, A.Slot, B.Slot);
      return {D, W};
    case BinaryOp::Xor:
      emit(Op::Xor, D, A.Slot, B.Slot);
      return {D, W};
    case BinaryOp::Eq:
      emit(Op::Eq, D, A.Slot, B.Slot);
      return {D, 0};
    case BinaryOp::LtU:
      emit(Op::LtU, D, A.Slot, B.Slot);
      return {D, 0};
    case BinaryOp::LtS:
      emit(Op::LtS, D, A.Slot, B.Slot, 0, 64 - W);
      return {D, 0};
    case BinaryOp::Shl:
      emit(Op::Shl, D, A.Slot, B.Slot, Mask, W);
      return {D, W};
    case BinaryOp::ShrL:
      emit(Op::ShrL, D, A.Slot, B.Slot, 0, W);
      return {D, W};
    case BinaryOp::ShrA:
      emit(Op::ShrA, D, A.Slot, B.Slot, Mask, 64 - W);
      return {D, W};
    }
    break;
  }
  case VExpKind::Unary: {
    Operand A = compileExp(*E.Args[0], NoHint);
    uint32_t D = Dst();
    if (E.UOp == UnaryOp::Not) {
      emit(Op::Not, D, A.Slot, 0, maskOf(A.Width));
      return {D, A.Width};
    }
    emit(Op::IsZero, D, A.Slot);
    return {D, 0};
  }
  case VExpKind::Slice: {
    Operand A = compileExp(*E.Args[0], NoHint);
    unsigned W = E.Hi - E.Lo + 1;
    uint32_t D = Dst();
    emit(Op::Slice, D, A.Slot, 0, maskOf(W), E.Lo);
    return {D, W};
  }
  case VExpKind::Concat: {
    Operand Hi = compileExp(*E.Args[0], NoHint);
    Operand Lo = compileExp(*E.Args[1], NoHint);
    uint32_t D = Dst();
    emit(Op::Concat, D, Hi.Slot, Lo.Slot, 0, Lo.Width);
    return {D, Hi.Width + Lo.Width};
  }
  case VExpKind::Cond: {
    uint32_t C = compileCond(*E.Args[0]);
    if (isLeaf(*E.Args[1]) && isLeaf(*E.Args[2])) {
      Operand Tv = compileExp(*E.Args[1], NoHint);
      Operand Fv = compileExp(*E.Args[2], NoHint);
      uint32_t D = Dst();
      emit(Op::Select, D, C, Tv.Slot, Fv.Slot);
      return {D, Tv.Width};
    }
    // An arm that computes runs only when taken, as in the reference,
    // so an out-of-range read on the untaken arm is no error.
    uint32_t D = Dst();
    uint32_t ToElse = emit(Op::JumpIfZero, 0, C);
    unsigned W = compileInto(*E.Args[1], D);
    uint32_t ToEnd = emit(Op::Jump, 0);
    patch(ToElse);
    compileInto(*E.Args[2], D);
    patch(ToEnd);
    return {D, W};
  }
  case VExpKind::ZeroExt:
  case VExpKind::BoolToVec: {
    Operand A = compileExp(*E.Args[0], Hint);
    unsigned W = E.Kind == VExpKind::ZeroExt ? E.Width : 1;
    if (Hint != NoHint && A.Slot != Hint)
      emit(Op::Copy, Hint, A.Slot);
    return {Hint != NoHint ? Hint : A.Slot, W};
  }
  case VExpKind::SignExt: {
    Operand A = compileExp(*E.Args[0], NoHint);
    uint32_t D = Dst();
    emit(Op::SignExt, D, A.Slot, 0, maskOf(E.Width), 64 - A.Width);
    return {D, E.Width};
  }
  case VExpKind::VecToBool: {
    Operand A = compileExp(*E.Args[0], NoHint);
    uint32_t D = Dst();
    emit(Op::NonZero, D, A.Slot);
    return {D, 0};
  }
  }
  assert(false && "unhandled expression kind");
  return {0, 0};
}

/// Compiles \p E so that its value ends in \p Dst; returns its width.
unsigned TapeBuilder::compileInto(const VExp &E, uint32_t Dst) {
  Operand V = compileExp(E, Dst);
  if (V.Slot != Dst)
    emit(Op::Copy, Dst, V.Slot);
  return V.Width;
}

/// Compiles a condition into a slot that is nonzero exactly when it
/// holds; the jumps and selects test for nonzero themselves, so a
/// vec-to-bool conversion costs nothing here.
uint32_t TapeBuilder::compileCond(const VExp &E) {
  const VExp &Tested = E.Kind == VExpKind::VecToBool ? *E.Args[0] : E;
  return compileExp(Tested, NoHint).Slot;
}

/// Appends \p S to the tape.  Each statement starts with every temporary
/// free: a value never outlives the statement that computes it.
/// \p Conditional says whether \p S sits under an `if`, i.e. whether its
/// non-blocking writes need an executed flag.
void TapeBuilder::compileStmt(const VStmt &S, bool Conditional) {
  TempsInUse = 0;
  switch (S.Kind) {
  case VStmtKind::Block:
    for (const VStmtPtr &Sub : S.Stmts)
      compileStmt(*Sub, Conditional);
    return;
  case VStmtKind::If: {
    uint32_t ToElse = emit(Op::JumpIfZero, 0, compileCond(*S.Cond));
    compileStmt(*S.Then, true);
    if (!S.Else) {
      patch(ToElse);
      return;
    }
    uint32_t ToEnd = emit(Op::Jump, 0);
    patch(ToElse);
    compileStmt(*S.Else, true);
    patch(ToEnd);
    return;
  }
  case VStmtKind::BlockingAssign:
    compileInto(*S.Rhs, ShadowOf[L.ScalarSlots.at(S.Lhs)]);
    return;
  case VStmtKind::NonBlockingAssign: {
    uint32_t Target = static_cast<uint32_t>(L.ScalarSlots.at(S.Lhs));
    uint32_t Latch = newSlot();
    if (!Conditional) {
      compileInto(*S.Rhs, Latch);
      NbCommits.push_back({Op::Copy, 0, Target, Latch, 0, 0});
      return;
    }
    T.Flags.push_back(newSlot());
    emit(Op::Latch, Latch, compileExp(*S.Rhs, Latch).Slot);
    NbCommits.push_back({Op::Commit, 0, Target, Latch, 0, 0});
    return;
  }
  case VStmtKind::MemWrite: {
    uint32_t Mem = static_cast<uint32_t>(L.MemSlots.at(S.Lhs));
    Operand Index = compileExp(*S.Index, NoHint);
    uint32_t Value = compileExp(*S.Rhs, NoHint).Slot;
    uint32_t Latch = newSlot();
    newSlot();
    T.Flags.push_back(newSlot());
    emit(Op::MemLatch, Latch, Index.Slot, Value);
    NbCommits.push_back({indexChecked(Index.Width, Mem) ? Op::MemCommitChecked
                                                        : Op::MemCommit,
                         0, 0, Latch, Mem, 0});
    return;
  }
  }
}

/// Appends one process.  A \p Shadowed process keeps its blocking writes
/// in shadow slots, copied in from the cycle-start state first and
/// committed after every process ran; any other writes through.
void TapeBuilder::compileProcess(const VStmt &Body, bool Shadowed) {
  CheckedRead = false;
  for (size_t Slot = 0; Slot != ShadowOf.size(); ++Slot)
    ShadowOf[Slot] = static_cast<uint32_t>(Slot);
  if (Shadowed) {
    for (const std::string &Name : blockingTargets(Body)) {
      uint32_t Slot = static_cast<uint32_t>(L.ScalarSlots.at(Name));
      uint32_t Shadow = newSlot();
      ShadowOf[Slot] = Shadow;
      emit(Op::Copy, Shadow, Slot);
      BlockingCommits.push_back({Op::Copy, 0, Slot, Shadow, 0, 0});
    }
  }
  compileStmt(Body, false);
}

void TapeBuilder::compileModule(const VModule &M) {
  for (const VPort &P : M.Ports) {
    declare(P.Name, P.Type);
    if (P.D == VPort::Dir::Input)
      L.InputSlots.emplace_back(P.Name, L.ScalarSlots[P.Name]);
  }
  for (const VDecl &D : M.Decls)
    declare(D.Name, D.Type);

  ShadowOf.resize(L.SlotWidths.size());
  for (size_t K = 0; K != M.Processes.size(); ++K)
    compileProcess(*M.Processes[K].Body,
                   K + 1 != M.Processes.size() || ShadowLast);
  // The end-of-cycle commit: blocking results first, then the
  // non-blocking writes in program order (last write wins).
  T.Code.insert(T.Code.end(), BlockingCommits.begin(), BlockingCommits.end());
  T.Code.insert(T.Code.end(), NbCommits.begin(), NbCommits.end());
  emit(Op::Halt, 0);
}

Result<Tape> silver::hdl::lowerModule(const VModule &M) {
  if (Result<void> Checked = typeCheck(M); !Checked)
    return Checked.error();
  // Later processes must read the cycle-start state, and a failed read
  // must leave no blocking write behind, so only the last process can
  // write through, and only when none of its reads is checked.  That
  // shows once it is lowered: such a module is lowered again.
  Tape Through;
  TapeBuilder B(Through, /*ShadowLast=*/false);
  B.compileModule(M);
  if (!B.CheckedRead)
    return Through;
  Tape Shadowed;
  TapeBuilder(Shadowed, /*ShadowLast=*/true).compileModule(M);
  return Shadowed;
}
