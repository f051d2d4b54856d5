//===- cml/CodeGen.cpp - Flat IR to Silver machine code ----------------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "cml/CodeGen.h"

#include "cml/Interp.h"
#include "cml/Runtime.h"
#include "isa/Abi.h"

#include <cassert>
#include <map>

using namespace silver;
using namespace silver::cml;
using assembler::Assembler;
using isa::Func;
using isa::Instruction;
using isa::Operand;
using isa::ShiftKind;

namespace {

constexpr unsigned A0 = 5, A1 = 6, ADDR = 7, S0 = 8, S1 = 9;
constexpr unsigned HP = abi::HeapReg;
constexpr unsigned LIM = abi::HeapEndReg;
constexpr unsigned SP = abi::StackReg;
constexpr unsigned LR = abi::LinkReg;

Operand R(unsigned Reg) { return Operand::reg(Reg); }
Operand Imm(int32_t V) { return Operand::imm(V); }

std::string strLabel(unsigned Idx) { return "str_" + std::to_string(Idx); }
std::string fnLabel(unsigned Id) { return "fn_" + std::to_string(Id); }

/// Compiles one function body; one instance per function keeps the slot
/// map and label counter local.
class FunctionCompiler {
public:
  FunctionCompiler(Assembler &A, const FlatProgram &Prog,
                   const std::string &LabelPrefix)
      : A(A), Prog(Prog), Prefix(LabelPrefix) {}

  /// Emits label, prologue, body, and (via Ret sinks) epilogues.
  void compile(const std::string &EntryLabel, const FTail &Body,
               const std::string *CloParam, const std::string *ArgParam);

private:
  Assembler &A;
  const FlatProgram &Prog;
  std::string Prefix;
  std::map<std::string, unsigned> Slots;
  unsigned FrameWords = 0;
  unsigned NextLabel = 0;

  std::string freshLabel() {
    return Prefix + "_L" + std::to_string(NextLabel++);
  }

  void collectSlots(const FTail &T);
  void addSlot(const std::string &Name) {
    if (!Slots.count(Name))
      Slots.emplace(Name, static_cast<unsigned>(Slots.size()));
  }

  int32_t slotOffset(const std::string &Name) const {
    auto It = Slots.find(Name);
    assert(It != Slots.end() && "unknown variable");
    return static_cast<int32_t>(4 + 4 * It->second);
  }

  void emitAddImmWide(unsigned Dst, unsigned Src, int32_t K) {
    if (K >= -32 && K <= 31) {
      A.emit(Instruction::normal(Func::Add, Dst, R(Src), Imm(K)));
      return;
    }
    A.emitLi(Dst, static_cast<Word>(K));
    A.emit(Instruction::normal(Func::Add, Dst, R(Src), R(Dst)));
  }

  void loadVar(unsigned Dst, const std::string &Name) {
    emitAddImmWide(Dst, SP, slotOffset(Name));
    A.emit(Instruction::loadMem(Dst, R(Dst)));
  }
  void storeVar(unsigned Src, const std::string &Name) {
    assert(Src != ADDR && "value register clashes with address scratch");
    emitAddImmWide(ADDR, SP, slotOffset(Name));
    A.emit(Instruction::storeMem(R(Src), R(ADDR)));
  }

  void loadAtom(unsigned Dst, const Atom &V) {
    switch (V.K) {
    case Atom::Kind::Var:
      loadVar(Dst, V.Var);
      return;
    case Atom::Kind::Int:
      A.emitLi(Dst, (static_cast<Word>(V.Int) << 1) | 1);
      return;
    case Atom::Kind::Str:
      A.emitLiLabel(Dst, strLabel(V.StrIdx));
      return;
    case Atom::Kind::Nil:
      A.emit(Instruction::normal(Func::Snd, Dst, Imm(0), Imm(1)));
      return;
    }
  }

  void emitTagBool(unsigned Reg) {
    A.emit(Instruction::shift(ShiftKind::LogicalLeft, Reg, R(Reg), Imm(1)));
    A.emit(Instruction::normal(Func::Or, Reg, R(Reg), Imm(1)));
  }

  /// Allocates \p Bytes (word multiple); block pointer lands in S0.
  /// Clobbers S1 and TmpReg; A0/A1/ADDR survive.
  void emitAlloc(uint32_t Bytes) {
    std::string Ok = freshLabel();
    A.emitLi(S1, Bytes);
    A.emit(Instruction::normal(Func::Add, S1, R(HP), R(S1)));
    A.emit(Instruction::normal(Func::Lower, abi::TmpReg, R(LIM), R(S1)));
    A.emitBranch(/*WhenZero=*/true, Func::Snd, Imm(0), R(abi::TmpReg), Ok);
    A.emitJump("rt_oom");
    A.label(Ok);
    A.emit(Instruction::normal(Func::Snd, S0, Imm(0), R(HP)));
    A.emit(Instruction::normal(Func::Snd, HP, Imm(0), R(S1)));
  }

  void emitPrologue(const std::string *CloParam, const std::string *ArgParam);
  void emitEpilogueAndRet();
  void emitPrim(const FRhs &Rhs, const std::string &Dest);
  void emitRhs(const FRhs &Rhs, const std::string &Dest);

  struct Sink {
    bool IsReturn = true;
    std::string AssignTo; ///< when !IsReturn
    std::string Join;     ///< join label when !IsReturn
  };
  void compileTail(const FTail &T, const Sink &S);
};

void FunctionCompiler::collectSlots(const FTail &T) {
  switch (T.K) {
  case FTail::Kind::Ret:
  case FTail::Kind::TailCall:
    return;
  case FTail::Kind::Let:
    addSlot(T.Name);
    if (T.Rhs.K == FRhs::Kind::If) {
      collectSlots(*T.Rhs.Then);
      collectSlots(*T.Rhs.Else);
    }
    collectSlots(*T.Rest);
    return;
  case FTail::Kind::If:
    collectSlots(*T.Then);
    collectSlots(*T.Else);
    return;
  }
}

void FunctionCompiler::emitPrologue(const std::string *CloParam,
                                    const std::string *ArgParam) {
  uint32_t FrameBytes = 4 * (1 + static_cast<uint32_t>(Slots.size()));
  FrameWords = 1 + static_cast<unsigned>(Slots.size());
  // Stack-limit check (with the runtime guard) before committing.
  A.emitLi(S0, FrameBytes + StackGuardBytes);
  A.emit(Instruction::normal(Func::Sub, S0, R(SP), R(S0)));
  A.emit(Instruction::normal(Func::Lower, S1, R(S0), R(LIM)));
  A.emitBranch(/*WhenZero=*/false, Func::Snd, Imm(0), R(S1), "rt_oom");
  A.emitLi(S0, FrameBytes);
  A.emit(Instruction::normal(Func::Sub, SP, R(SP), R(S0)));
  A.emit(Instruction::storeMem(R(LR), R(SP)));
  if (CloParam)
    storeVar(A0, *CloParam);
  if (ArgParam)
    storeVar(A1, *ArgParam);
}

void FunctionCompiler::emitEpilogueAndRet() {
  A.emit(Instruction::loadMem(LR, R(SP)));
  A.emitLi(S1, 4 * FrameWords);
  A.emit(Instruction::normal(Func::Add, SP, R(SP), R(S1)));
  A.emitRet();
}

void FunctionCompiler::emitPrim(const FRhs &Rhs, const std::string &Dest) {
  PrimKind P = Rhs.Prim;
  // Load the value arguments into A0/A1/A2-as-ADDR.
  unsigned ArgRegs[3] = {A0, A1, ADDR};
  unsigned N = primArgCount(P);
  assert(Rhs.Args.size() == N && "prim arity mismatch");
  // ADDR doubles as the third argument register only for Substring,
  // whose runtime call consumes it immediately.
  for (unsigned I = 0; I != N; ++I)
    loadAtom(ArgRegs[I], Rhs.Args[I]);

  switch (P) {
  case PrimKind::Add:
    A.emit(Instruction::normal(Func::Add, A0, R(A0), R(A1)));
    A.emit(Instruction::normal(Func::Dec, A0, R(A0), Imm(0)));
    break;
  case PrimKind::Sub:
    A.emit(Instruction::normal(Func::Sub, A0, R(A0), R(A1)));
    A.emit(Instruction::normal(Func::Inc, A0, R(A0), Imm(0)));
    break;
  case PrimKind::Mul:
    A.emit(Instruction::shift(ShiftKind::ArithRight, A0, R(A0), Imm(1)));
    A.emit(Instruction::shift(ShiftKind::ArithRight, A1, R(A1), Imm(1)));
    A.emit(Instruction::normal(Func::Mul, A0, R(A0), R(A1)));
    emitTagBool(A0); // <<1 | 1 retags (not bool-specific)
    break;
  case PrimKind::Div:
    A.emitCall("rt_div");
    break;
  case PrimKind::Mod:
    A.emitCall("rt_mod");
    break;
  case PrimKind::Lt:
    A.emit(Instruction::normal(Func::Less, A0, R(A0), R(A1)));
    emitTagBool(A0);
    break;
  case PrimKind::Le:
    A.emit(Instruction::normal(Func::Less, A0, R(A1), R(A0)));
    A.emit(Instruction::normal(Func::Xor, A0, R(A0), Imm(1)));
    emitTagBool(A0);
    break;
  case PrimKind::Gt:
    A.emit(Instruction::normal(Func::Less, A0, R(A1), R(A0)));
    emitTagBool(A0);
    break;
  case PrimKind::Ge:
    A.emit(Instruction::normal(Func::Less, A0, R(A0), R(A1)));
    A.emit(Instruction::normal(Func::Xor, A0, R(A0), Imm(1)));
    emitTagBool(A0);
    break;
  case PrimKind::PolyEq:
    A.emitCall("rt_poly_eq");
    break;
  case PrimKind::Cons:
  case PrimKind::MkPair: {
    emitAlloc(12);
    uint32_t Tag = P == PrimKind::Cons ? TagCons : TagPair;
    A.emitLi(S1, Tag | (2u << 8));
    A.emit(Instruction::storeMem(R(S1), R(S0)));
    A.emit(Instruction::normal(Func::Add, S1, R(S0), Imm(4)));
    A.emit(Instruction::storeMem(R(A0), R(S1)));
    A.emit(Instruction::normal(Func::Add, S1, R(S0), Imm(8)));
    A.emit(Instruction::storeMem(R(A1), R(S1)));
    A.emit(Instruction::normal(Func::Snd, A0, Imm(0), R(S0)));
    break;
  }
  case PrimKind::Head:
  case PrimKind::Fst:
    A.emit(Instruction::normal(Func::Add, A0, R(A0), Imm(4)));
    A.emit(Instruction::loadMem(A0, R(A0)));
    break;
  case PrimKind::Tail:
  case PrimKind::Snd:
    A.emit(Instruction::normal(Func::Add, A0, R(A0), Imm(8)));
    A.emit(Instruction::loadMem(A0, R(A0)));
    break;
  case PrimKind::IsNil:
    A.emit(Instruction::normal(Func::And, A0, R(A0), Imm(1)));
    emitTagBool(A0);
    break;
  case PrimKind::StrConcat:
    A.emitCall("rt_str_concat");
    break;
  case PrimKind::StrSize:
    A.emit(Instruction::loadMem(A0, R(A0)));
    A.emit(Instruction::shift(ShiftKind::LogicalRight, A0, R(A0), Imm(8)));
    emitTagBool(A0);
    break;
  case PrimKind::StrSub:
    A.emitCall("rt_str_sub");
    break;
  case PrimKind::Substring:
    A.emitCall("rt_substring");
    break;
  case PrimKind::Strcmp:
    A.emitCall("rt_strcmp");
    break;
  case PrimKind::ConcatList:
    A.emitCall("rt_concat_list");
    break;
  case PrimKind::Implode:
    A.emitCall("rt_implode");
    break;
  case PrimKind::Ord:
    break; // chars are tagged ints already
  case PrimKind::Chr:
    A.emitCall("rt_chr");
    break;
  case PrimKind::Print:
    A.emitCall("rt_print_out");
    break;
  case PrimKind::PrintErr:
    A.emitCall("rt_print_err");
    break;
  case PrimKind::ReadChunk:
    A.emitCall("rt_read_chunk");
    break;
  case PrimKind::ArgCount:
    A.emitCall("rt_arg_count");
    break;
  case PrimKind::ArgN:
    A.emitCall("rt_arg_n");
    break;
  case PrimKind::Exit:
    A.emitCall("rt_exit"); // never returns
    break;
  case PrimKind::GlobalGet:
    A.emitLiLabel(ADDR, "globals");
    emitAddImmWide(A0, ADDR, 4 * Rhs.Imm);
    A.emit(Instruction::loadMem(A0, R(A0)));
    break;
  case PrimKind::GlobalSet:
    A.emitLiLabel(ADDR, "globals");
    emitAddImmWide(A1, ADDR, 4 * Rhs.Imm);
    A.emit(Instruction::storeMem(R(A0), R(A1)));
    A.emit(Instruction::normal(Func::Snd, A0, Imm(0), Imm(1))); // unit
    break;
  case PrimKind::Trap:
    switch (Rhs.Imm) {
    case TrapDivCode:
      A.emitJump("rt_trap_div");
      break;
    case TrapMatchCode:
      A.emitJump("rt_trap_match");
      break;
    case TrapSubscriptCode:
      A.emitJump("rt_trap_subscript");
      break;
    default:
      A.emitLi(A0, (static_cast<Word>(Rhs.Imm) << 1) | 1);
      A.emitJump("rt_exit");
      break;
    }
    break;
  case PrimKind::AllocClosure: {
    uint32_t Free = static_cast<uint32_t>(Rhs.Imm2);
    emitAlloc(4 * (2 + Free));
    A.emitLi(S1, TagClosure | ((1 + Free) << 8));
    A.emit(Instruction::storeMem(R(S1), R(S0)));
    A.emitLiLabel(S1, fnLabel(static_cast<unsigned>(Rhs.Imm)));
    A.emit(Instruction::normal(Func::Add, A0, R(S0), Imm(4)));
    A.emit(Instruction::storeMem(R(S1), R(A0)));
    A.emit(Instruction::normal(Func::Snd, A0, Imm(0), R(S0)));
    break;
  }
  case PrimKind::ClosSet:
    emitAddImmWide(S0, A0, 8 + 4 * Rhs.Imm);
    A.emit(Instruction::storeMem(R(A1), R(S0)));
    A.emit(Instruction::normal(Func::Snd, A0, Imm(0), Imm(1))); // unit
    break;
  case PrimKind::ClosEnv:
    emitAddImmWide(A0, A0, 8 + 4 * Rhs.Imm);
    A.emit(Instruction::loadMem(A0, R(A0)));
    break;
  }
  storeVar(A0, Dest);
}

void FunctionCompiler::emitRhs(const FRhs &Rhs, const std::string &Dest) {
  switch (Rhs.K) {
  case FRhs::Kind::Atom:
    loadAtom(A0, Rhs.A);
    storeVar(A0, Dest);
    return;
  case FRhs::Kind::Prim:
    emitPrim(Rhs, Dest);
    return;
  case FRhs::Kind::Call: {
    loadAtom(A0, Rhs.Args[0]);
    loadAtom(A1, Rhs.Args[1]);
    A.emit(Instruction::normal(Func::Add, ADDR, R(A0), Imm(4)));
    A.emit(Instruction::loadMem(ADDR, R(ADDR)));
    A.emit(Instruction::jump(Func::Snd, LR, R(ADDR)));
    storeVar(A0, Dest);
    return;
  }
  case FRhs::Kind::If: {
    std::string ElseL = freshLabel();
    std::string JoinL = freshLabel();
    loadAtom(A0, Rhs.Args[0]);
    // Tagged false is 1: branch on the untagged truth value.
    A.emit(Instruction::shift(ShiftKind::ArithRight, A0, R(A0), Imm(1)));
    A.emitBranch(/*WhenZero=*/true, Func::Snd, Imm(0), R(A0), ElseL);
    Sink S;
    S.IsReturn = false;
    S.AssignTo = Dest;
    S.Join = JoinL;
    compileTail(*Rhs.Then, S);
    A.label(ElseL);
    compileTail(*Rhs.Else, S);
    A.label(JoinL);
    return;
  }
  }
}

void FunctionCompiler::compileTail(const FTail &T, const Sink &S) {
  switch (T.K) {
  case FTail::Kind::Ret:
    loadAtom(A0, T.A);
    if (S.IsReturn) {
      emitEpilogueAndRet();
    } else {
      storeVar(A0, S.AssignTo);
      A.emitJump(S.Join);
    }
    return;
  case FTail::Kind::Let:
    emitRhs(T.Rhs, T.Name);
    compileTail(*T.Rest, S);
    return;
  case FTail::Kind::If: {
    std::string ElseL = freshLabel();
    loadAtom(A0, T.A);
    A.emit(Instruction::shift(ShiftKind::ArithRight, A0, R(A0), Imm(1)));
    A.emitBranch(/*WhenZero=*/true, Func::Snd, Imm(0), R(A0), ElseL);
    compileTail(*T.Then, S);
    A.label(ElseL);
    compileTail(*T.Else, S);
    return;
  }
  case FTail::Kind::TailCall: {
    assert(S.IsReturn && "tail call in a value-producing position");
    loadAtom(A0, T.A);
    loadAtom(A1, T.B);
    A.emit(Instruction::normal(Func::Add, ADDR, R(A0), Imm(4)));
    A.emit(Instruction::loadMem(ADDR, R(ADDR)));
    // Pop the frame, then jump (the callee builds its own frame).
    A.emit(Instruction::loadMem(LR, R(SP)));
    A.emitLi(S1, 4 * FrameWords);
    A.emit(Instruction::normal(Func::Add, SP, R(SP), R(S1)));
    A.emit(Instruction::jump(Func::Snd, abi::TmpReg, R(ADDR)));
    return;
  }
  }
}

void FunctionCompiler::compile(const std::string &EntryLabel,
                               const FTail &Body,
                               const std::string *CloParam,
                               const std::string *ArgParam) {
  if (CloParam)
    addSlot(*CloParam);
  if (ArgParam)
    addSlot(*ArgParam);
  collectSlots(Body);

  A.label(EntryLabel);
  emitPrologue(CloParam, ArgParam);
  Sink S;
  S.IsReturn = true;
  compileTail(Body, S);
}

} // namespace

Result<void> silver::cml::generateProgram(const FlatProgram &Prog,
                                          Assembler &A) {
  // --- entry stub (the image's CodeBase = the first instruction) ---
  A.label("entry");
  // HP = usable-memory start (r1); stack at the top, limit below it.
  A.emit(Instruction::normal(Func::Snd, HP, Imm(0), R(abi::MemStartReg)));
  // Stack size = min((end-start)/4, 256 KiB).
  A.emit(Instruction::normal(Func::Sub, S0, R(abi::MemEndReg),
                             R(abi::MemStartReg)));
  A.emit(Instruction::shift(ShiftKind::LogicalRight, S0, R(S0), Imm(2)));
  A.emitLi(S1, 256u << 10);
  A.emit(Instruction::normal(Func::Lower, ADDR, R(S1), R(S0)));
  A.emitBranch(/*WhenZero=*/true, Func::Snd, Imm(0), R(ADDR),
               "entry_stack_ok");
  A.emit(Instruction::normal(Func::Snd, S0, Imm(0), R(S1)));
  A.label("entry_stack_ok");
  A.emit(Instruction::normal(Func::Sub, LIM, R(abi::MemEndReg), R(S0)));
  A.emit(Instruction::normal(Func::Snd, SP, Imm(0), R(abi::MemEndReg)));
  A.emitCall("cml_main");
  // Normal termination: exit 0.
  A.emit(Instruction::normal(Func::Snd, A0, Imm(0), Imm(1))); // tagged 0
  A.emitJump("rt_exit");

  // --- runtime ---
  emitRuntime(A);

  // --- compiled functions ---
  for (const FlatFunction &F : Prog.Funs) {
    FunctionCompiler FC(A, Prog, 'f' + std::to_string(F.Id));
    FC.compile(fnLabel(F.Id), *F.Body, &F.CloParam, &F.ArgParam);
  }
  FunctionCompiler Main(A, Prog, "m");
  Main.compile("cml_main", *Prog.Main, nullptr, nullptr);

  // --- data: globals and interned strings ---
  A.align(4);
  A.label("globals");
  A.space(4 * std::max(1u, Prog.GlobalCount));
  for (unsigned I = 0, E = static_cast<unsigned>(Prog.StringPool.size());
       I != E; ++I) {
    const std::string &Text = Prog.StringPool[I];
    A.align(4);
    A.label(strLabel(I));
    A.word(TagString |
           (static_cast<Word>(Text.size()) << 8));
    A.ascii(Text);
    A.align(4);
  }
  return {};
}
