//===- hdl/FastSim.cpp - Compiled simulator for the subset -------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "hdl/FastSim.h"

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

/// The value of the low 64 - \p Sh bits of \p X, sign-extended.
int64_t signedFrom(unsigned Sh, uint64_t X) {
  return static_cast<int64_t>(X << Sh) >> Sh;
}

/// A tape opcode.  S is the slot array; operand fields an opcode does
/// not name are unused.
enum class Op : uint8_t {
  Copy,       ///< S[D] = S[A]
  Add,        ///< S[D] = (S[A] + S[B]) & Imm
  Sub,        ///< S[D] = (S[A] - S[B]) & Imm
  Mul,        ///< S[D] = (S[A] * S[B]) & Imm
  And,        ///< S[D] = S[A] & S[B]
  Or,         ///< S[D] = S[A] | S[B]
  Xor,        ///< S[D] = S[A] ^ S[B]
  Eq,         ///< S[D] = S[A] == S[B]
  LtU,        ///< S[D] = S[A] < S[B]
  LtS,        ///< S[D] = signed S[A] < signed S[B]; Sh = 64 - width
  Shl,        ///< S[D] = S[B] >= Sh ? 0 : (S[A] << S[B]) & Imm; Sh = width
  ShrL,       ///< S[D] = S[B] >= Sh ? 0 : S[A] >> S[B]; Sh = width
  ShrA,       ///< S[D] = (signed S[A] >> S[B]) & Imm; Sh = 64 - width
  Not,        ///< S[D] = ~S[A] & Imm
  IsZero,     ///< S[D] = S[A] == 0
  NonZero,    ///< S[D] = S[A] != 0
  Slice,      ///< S[D] = (S[A] >> Sh) & Imm
  Concat,     ///< S[D] = (S[A] << Sh) | S[B]
  SignExt,    ///< S[D] = signed S[A] & Imm; Sh = 64 - source width
  Select,     ///< S[D] = S[A] ? S[B] : S[Imm]
  MemRead,    ///< S[D] = memory B at S[A]; out of range is an error
  JumpIfZero, ///< if S[A] == 0, continue at instruction D
  Jump,       ///< continue at instruction D
  Latch,      ///< S[D] = S[A]; S[D + 1] = 1
  MemLatch,   ///< S[D] = S[A]; S[D + 1] = S[B]; S[D + 2] = 1
  Commit,     ///< if S[A + 1]: S[D] = S[A]; S[A + 1] = 0
  MemCommit,  ///< if S[A + 2]: memory B at S[A] = S[A + 1]; S[A + 2] = 0
  Halt,
};

struct Instr {
  Op Code = Op::Halt;
  uint8_t Sh = 0;
  uint32_t D = 0, A = 0, B = 0;
  uint64_t Imm = 0;
};

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

} // namespace

struct FastSim::Impl {
  std::map<std::string, int> ScalarSlots; // bool/vec variables
  std::map<std::string, int> MemSlots;
  std::vector<std::string> MemNames;
  std::vector<unsigned> MemWidths;
  std::vector<unsigned> SlotWidths; // per named slot; 0 = bool
  std::vector<std::pair<std::string, int>> InputSlots;
  std::vector<std::vector<uint64_t>> Mems;

  /// The named slots (ports, then decls), then constants, latches,
  /// shadows and temporaries.
  std::vector<uint64_t> Slots;
  std::vector<Instr> Tape;
  /// Latch flags, cleared when a cycle fails part-way.
  std::vector<uint32_t> FlagSlots;

  // Observability: cycle ticks for the unified trace/counter subsystem.
  obs::Observer *CycleObs = nullptr;
  uint64_t Cycle = 0;

  const Instr *run();
};

namespace {

/// Lowers a type-checked module into a FastSim::Impl's slots and tape.
class TapeBuilder {
public:
  explicit TapeBuilder(FastSim::Impl &I) : I(I) {}
  void compileModule(const VModule &M);

private:
  FastSim::Impl &I;
  std::map<uint64_t, uint32_t> Consts;
  std::vector<uint32_t> Temps; ///< reused from one statement to the next
  size_t TempsInUse = 0;
  /// Named slot -> the slot the current process reads and writes it in.
  std::vector<uint32_t> ShadowOf;
  std::vector<Instr> BlockingCommits;
  std::vector<Instr> NbCommits;

  uint32_t newSlot() {
    I.Slots.push_back(0);
    return static_cast<uint32_t>(I.Slots.size() - 1);
  }
  uint32_t constSlot(uint64_t Bits);
  uint32_t temp();
  uint32_t emit(Op Code, uint32_t D, uint32_t A = 0, uint32_t B = 0,
                uint64_t Imm = 0, unsigned Sh = 0) {
    I.Tape.push_back({Code, static_cast<uint8_t>(Sh), D, A, B, Imm});
    return static_cast<uint32_t>(I.Tape.size() - 1);
  }
  /// Points the jump at \p At to the next instruction emitted.
  void patch(uint32_t At) {
    I.Tape[At].D = static_cast<uint32_t>(I.Tape.size());
  }

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
    I.Slots[It->second] = Bits;
  }
  return It->second;
}

uint32_t TapeBuilder::temp() {
  if (TempsInUse == Temps.size())
    Temps.push_back(newSlot());
  return Temps[TempsInUse++];
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
    int Slot = I.ScalarSlots.at(E.Name);
    return {ShadowOf[Slot], I.SlotWidths[Slot]};
  }
  case VExpKind::MemRead: {
    int Mem = I.MemSlots.at(E.Name);
    Operand Idx = compileExp(*E.Args[0], NoHint);
    uint32_t D = Dst();
    emit(Op::MemRead, D, Idx.Slot, static_cast<uint32_t>(Mem));
    return {D, I.MemWidths[Mem]};
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
      Operand T = compileExp(*E.Args[1], NoHint);
      Operand F = compileExp(*E.Args[2], NoHint);
      uint32_t D = Dst();
      emit(Op::Select, D, C, T.Slot, F.Slot);
      return {D, T.Width};
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
    compileInto(*S.Rhs, ShadowOf[I.ScalarSlots.at(S.Lhs)]);
    return;
  case VStmtKind::NonBlockingAssign: {
    uint32_t Target = static_cast<uint32_t>(I.ScalarSlots.at(S.Lhs));
    uint32_t Latch = newSlot();
    if (!Conditional) {
      compileInto(*S.Rhs, Latch);
      NbCommits.push_back({Op::Copy, 0, Target, Latch, 0, 0});
      return;
    }
    uint32_t Flag = newSlot();
    I.FlagSlots.push_back(Flag);
    emit(Op::Latch, Latch, compileExp(*S.Rhs, Latch).Slot);
    NbCommits.push_back({Op::Commit, 0, Target, Latch, 0, 0});
    return;
  }
  case VStmtKind::MemWrite: {
    uint32_t Mem = static_cast<uint32_t>(I.MemSlots.at(S.Lhs));
    uint32_t Index = compileExp(*S.Index, NoHint).Slot;
    uint32_t Value = compileExp(*S.Rhs, NoHint).Slot;
    uint32_t Latch = newSlot();
    newSlot();
    I.FlagSlots.push_back(newSlot());
    emit(Op::MemLatch, Latch, Index, Value);
    NbCommits.push_back({Op::MemCommit, 0, 0, Latch, Mem, 0});
    return;
  }
  }
}

/// Appends one process.  A \p Shadowed process keeps its blocking writes
/// in shadow slots, copied in from the cycle-start state first and
/// committed after every process ran, so later processes still read the
/// cycle-start state.  The last process has no later reader and writes
/// through.
void TapeBuilder::compileProcess(const VStmt &Body, bool Shadowed) {
  for (size_t Slot = 0; Slot != ShadowOf.size(); ++Slot)
    ShadowOf[Slot] = static_cast<uint32_t>(Slot);
  if (Shadowed) {
    for (const std::string &Name : blockingTargets(Body)) {
      uint32_t Slot = static_cast<uint32_t>(I.ScalarSlots.at(Name));
      uint32_t Shadow = newSlot();
      ShadowOf[Slot] = Shadow;
      emit(Op::Copy, Shadow, Slot);
      BlockingCommits.push_back({Op::Copy, 0, Slot, Shadow, 0, 0});
    }
  }
  compileStmt(Body, false);
}

void TapeBuilder::compileModule(const VModule &M) {
  auto Declare = [this](const std::string &Name, const VType &T) {
    if (T.K == VType::Kind::Mem) {
      I.MemSlots[Name] = static_cast<int>(I.Mems.size());
      I.Mems.emplace_back(T.Depth, 0);
      I.MemWidths.push_back(T.Width);
      I.MemNames.push_back(Name);
      return;
    }
    I.ScalarSlots[Name] = static_cast<int>(newSlot());
    I.SlotWidths.push_back(T.K == VType::Kind::Bool ? 0 : T.Width);
  };
  for (const VPort &P : M.Ports) {
    Declare(P.Name, P.Type);
    if (P.D == VPort::Dir::Input)
      I.InputSlots.emplace_back(P.Name, I.ScalarSlots[P.Name]);
  }
  for (const VDecl &D : M.Decls)
    Declare(D.Name, D.Type);

  ShadowOf.resize(I.SlotWidths.size());
  for (size_t K = 0; K != M.Processes.size(); ++K)
    compileProcess(*M.Processes[K].Body, K + 1 != M.Processes.size());
  // The end-of-cycle commit: blocking results first, then the
  // non-blocking writes in program order (last write wins).
  I.Tape.insert(I.Tape.end(), BlockingCommits.begin(), BlockingCommits.end());
  I.Tape.insert(I.Tape.end(), NbCommits.begin(), NbCommits.end());
  emit(Op::Halt, 0);
}

/// Runs the tape once: one cycle.  Returns the instruction that failed,
/// or null.
const Instr *FastSim::Impl::run() {
  uint64_t *S = Slots.data();
  const Instr *Code = Tape.data();
  for (const Instr *P = Code;;) {
    const Instr &In = *P++;
    switch (In.Code) {
    case Op::Copy:
      S[In.D] = S[In.A];
      break;
    case Op::Add:
      S[In.D] = (S[In.A] + S[In.B]) & In.Imm;
      break;
    case Op::Sub:
      S[In.D] = (S[In.A] - S[In.B]) & In.Imm;
      break;
    case Op::Mul:
      S[In.D] = (S[In.A] * S[In.B]) & In.Imm;
      break;
    case Op::And:
      S[In.D] = S[In.A] & S[In.B];
      break;
    case Op::Or:
      S[In.D] = S[In.A] | S[In.B];
      break;
    case Op::Xor:
      S[In.D] = S[In.A] ^ S[In.B];
      break;
    case Op::Eq:
      S[In.D] = S[In.A] == S[In.B];
      break;
    case Op::LtU:
      S[In.D] = S[In.A] < S[In.B];
      break;
    case Op::LtS:
      S[In.D] = signedFrom(In.Sh, S[In.A]) < signedFrom(In.Sh, S[In.B]);
      break;
    case Op::Shl:
      S[In.D] = S[In.B] >= In.Sh ? 0 : (S[In.A] << S[In.B]) & In.Imm;
      break;
    case Op::ShrL:
      S[In.D] = S[In.B] >= In.Sh ? 0 : S[In.A] >> S[In.B];
      break;
    case Op::ShrA: {
      int64_t V = signedFrom(In.Sh, S[In.A]);
      uint64_t Amount = S[In.B];
      uint64_t R = Amount >= 64u - In.Sh ? (V < 0 ? ~uint64_t(0) : 0)
                                         : static_cast<uint64_t>(V >> Amount);
      S[In.D] = R & In.Imm;
      break;
    }
    case Op::Not:
      S[In.D] = ~S[In.A] & In.Imm;
      break;
    case Op::IsZero:
      S[In.D] = S[In.A] == 0;
      break;
    case Op::NonZero:
      S[In.D] = S[In.A] != 0;
      break;
    case Op::Slice:
      S[In.D] = (S[In.A] >> In.Sh) & In.Imm;
      break;
    case Op::Concat:
      S[In.D] = (S[In.A] << In.Sh) | S[In.B];
      break;
    case Op::SignExt:
      S[In.D] = static_cast<uint64_t>(signedFrom(In.Sh, S[In.A])) & In.Imm;
      break;
    case Op::Select:
      S[In.D] = S[In.A] != 0 ? S[In.B] : S[In.Imm];
      break;
    case Op::MemRead: {
      const std::vector<uint64_t> &Mem = Mems[In.B];
      uint64_t Index = S[In.A];
      if (Index >= Mem.size())
        return &In;
      S[In.D] = Mem[Index];
      break;
    }
    case Op::JumpIfZero:
      if (S[In.A] == 0)
        P = Code + In.D;
      break;
    case Op::Jump:
      P = Code + In.D;
      break;
    case Op::Latch:
      S[In.D] = S[In.A];
      S[In.D + 1] = 1;
      break;
    case Op::MemLatch:
      S[In.D] = S[In.A];
      S[In.D + 1] = S[In.B];
      S[In.D + 2] = 1;
      break;
    case Op::Commit:
      if (S[In.A + 1] != 0) {
        S[In.D] = S[In.A];
        S[In.A + 1] = 0;
      }
      break;
    case Op::MemCommit:
      if (S[In.A + 2] != 0) {
        std::vector<uint64_t> &Mem = Mems[In.B];
        uint64_t Index = S[In.A];
        if (Index >= Mem.size())
          return &In;
        Mem[Index] = S[In.A + 1];
        S[In.A + 2] = 0;
      }
      break;
    case Op::Halt:
      return nullptr;
    }
  }
}

ModuleSim::~ModuleSim() = default;

FastSim::FastSim() : I(std::make_unique<Impl>()) {}
FastSim::~FastSim() = default;

Result<std::unique_ptr<FastSim>> FastSim::compile(const VModule &M) {
  if (Result<void> T = typeCheck(M); !T)
    return T.error();
  std::unique_ptr<FastSim> Sim(new FastSim());
  TapeBuilder(*Sim->I).compileModule(M);
  return Sim;
}

Result<void> FastSim::stepDense(const uint64_t *Inputs, size_t Count) {
  Impl &Im = *I;
  if (Count != Im.InputSlots.size())
    return Error("fastsim: dense input frame has " + std::to_string(Count) +
                 " values, module has " +
                 std::to_string(Im.InputSlots.size()) + " input ports");
  for (size_t K = 0; K != Count; ++K) {
    int Slot = Im.InputSlots[K].second;
    unsigned W = Im.SlotWidths[Slot];
    Im.Slots[Slot] = maskTo(W == 0 ? 1 : W, Inputs[K]);
  }
  if (const Instr *Bad = Im.run()) {
    // A later cycle must not commit a latch this one left set.
    for (uint32_t Flag : Im.FlagSlots)
      Im.Slots[Flag] = 0;
    bool Read = Bad->Code == Op::MemRead;
    return Error(std::string("fastsim: memory ") +
                 (Read ? "index" : "write") + " out of range in '" +
                 Im.MemNames[Bad->B] + "'");
  }
  if (Im.CycleObs)
    Im.CycleObs->onCycle(Im.Cycle);
  ++Im.Cycle;
  return {};
}

void FastSim::setCycleObserver(obs::Observer *O) { I->CycleObs = O; }

size_t FastSim::numInputs() const { return I->InputSlots.size(); }

const std::string &FastSim::inputName(size_t Ordinal) const {
  assert(Ordinal < I->InputSlots.size() && "input ordinal out of range");
  return I->InputSlots[Ordinal].first;
}

int FastSim::slotOf(const std::string &Name) const {
  auto It = I->ScalarSlots.find(Name);
  return It == I->ScalarSlots.end() ? -1 : It->second;
}

int FastSim::memSlotOf(const std::string &Name) const {
  auto It = I->MemSlots.find(Name);
  return It == I->MemSlots.end() ? -1 : It->second;
}

uint64_t FastSim::valueOf(int Slot) const {
  assert(Slot >= 0 && static_cast<size_t>(Slot) < I->SlotWidths.size());
  return I->Slots[Slot];
}

void FastSim::setValue(int Slot, uint64_t Bits) {
  assert(Slot >= 0 && static_cast<size_t>(Slot) < I->SlotWidths.size());
  unsigned W = I->SlotWidths[Slot];
  I->Slots[Slot] = maskTo(W == 0 ? 1 : W, Bits);
}

const std::vector<uint64_t> &FastSim::memOf(int MemSlot) const {
  assert(MemSlot >= 0 && static_cast<size_t>(MemSlot) < I->Mems.size());
  return I->Mems[MemSlot];
}

std::vector<uint64_t> &FastSim::memOf(int MemSlot) {
  assert(MemSlot >= 0 && static_cast<size_t>(MemSlot) < I->Mems.size());
  return I->Mems[MemSlot];
}

SimState FastSim::exportState(const VModule &M) const {
  SimState S = SimState::init(M);
  for (auto &[Name, Value] : S.Vars) {
    if (Value.K == VValue::Kind::Mem) {
      Value.Elems = memOf(memSlotOf(Name));
      continue;
    }
    auto It = I->ScalarSlots.find(Name);
    if (It == I->ScalarSlots.end())
      continue;
    if (Value.K == VValue::Kind::Bool)
      Value.B = I->Slots[It->second] != 0;
    else
      Value.Bits = maskTo(Value.Width, I->Slots[It->second]);
  }
  return S;
}
