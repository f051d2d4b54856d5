//===- tests/analysis/AnalysisTest.cpp - Cfg, dataflow, lint, audit ------------===//
//
// Golden-diagnostic tests for the static-analysis subsystem: every lint
// and audit rule is exercised by a deliberately broken mutant asserting
// the exact rule identifier, and the real artefacts (the generated Silver
// core module, the hello/wc/sort images) are asserted diagnostic-free.
//
//===----------------------------------------------------------------------===//

#include "analysis/ImageAudit.h"

#include "asm/Assembler.h"
#include "cpu/Core.h"
#include "hdl/Check.h"
#include "isa/Abi.h"
#include "isa/Encoding.h"
#include "rtl/ToVerilog.h"
#include "stack/Apps.h"
#include "stack/Stack.h"

#include <gtest/gtest.h>

using namespace silver;
using namespace silver::analysis;
using namespace silver::hdl;
using assembler::Assembler;
using isa::Func;
using isa::Instruction;
using isa::Operand;

static Operand R(unsigned Reg) { return Operand::reg(Reg); }

// --- Cfg and constant propagation -------------------------------------------

namespace {

std::vector<uint8_t> assembleAt(Assembler &A, Word Base) {
  Result<assembler::Assembled> Out = A.assemble(Base);
  EXPECT_TRUE(Out) << (Out ? "" : Out.error().str());
  return Out ? Out->Bytes : std::vector<uint8_t>{};
}

} // namespace

TEST(DecodeRegion, DropsTrailingPartialWord) {
  std::vector<uint8_t> Bytes(10, 0);
  std::vector<assembler::DecodedInstr> Instrs =
      assembler::decodeRegion(Bytes, 0x100);
  EXPECT_EQ(Instrs.size(), 2u);
  EXPECT_EQ(Instrs[1].Addr, 0x104u);
}

TEST(Flow, ClassifiesTerminators) {
  auto FlowOfInstr = [](const Instruction &I) {
    assembler::DecodedInstr D;
    D.Addr = 0x40;
    D.Valid = true;
    D.Instr = I;
    return flowOf(D);
  };
  Flow Halt = FlowOfInstr(Instruction::halt());
  EXPECT_EQ(Halt.Kind, FlowKind::Halt);

  Flow Goto = FlowOfInstr(
      Instruction::jump(Func::Add, silver::abi::TmpReg, Operand::imm(8)));
  EXPECT_EQ(Goto.Kind, FlowKind::Goto);
  ASSERT_TRUE(Goto.Target);
  EXPECT_EQ(*Goto.Target, 0x48u);

  Flow Call = FlowOfInstr(
      Instruction::jump(Func::Add, silver::abi::LinkReg, Operand::imm(8)));
  EXPECT_EQ(Call.Kind, FlowKind::Call);
  EXPECT_TRUE(Call.HasFallthrough());

  Flow Computed =
      FlowOfInstr(Instruction::jump(Func::Snd, silver::abi::TmpReg, R(5)));
  EXPECT_EQ(Computed.Kind, FlowKind::Computed);
  EXPECT_FALSE(Computed.Target);

  Flow Branch = FlowOfInstr(
      Instruction::jumpIfZero(Func::Sub, R(5), R(6), -2));
  EXPECT_EQ(Branch.Kind, FlowKind::Branch);
  ASSERT_TRUE(Branch.Target);
  EXPECT_EQ(*Branch.Target, 0x38u);
}

TEST(Cfg, BuildsBlocksAndEdges) {
  Assembler A;
  // b0: branch over b1; b1: fallthrough; b2: halt.
  A.emit(Instruction::jumpIfZero(Func::Snd, Operand::imm(0), R(5), 2));
  A.emit(Instruction::normal(Func::Add, 5, R(5), Operand::imm(1)));
  A.emitHalt();
  std::vector<uint8_t> Bytes = assembleAt(A, 0);
  Cfg G = Cfg::build(Bytes, 0, 0);
  ASSERT_EQ(G.Blocks.size(), 3u);
  EXPECT_EQ(G.Blocks[0].Succs.size(), 2u);
  EXPECT_EQ(G.Blocks[1].Succs.size(), 1u);
  EXPECT_TRUE(G.Blocks[2].Succs.empty());
  EXPECT_EQ(G.EntryBlock, 0u);
}

TEST(ConstProp, ResolvesLoadAddressJump) {
  // The assembler's far-jump shape: li TmpReg, Target; jump snd TmpReg.
  Assembler A;
  A.emitLi(silver::abi::TmpReg, 0x123458);
  A.emit(Instruction::jump(Func::Snd, silver::abi::TmpReg, R(silver::abi::TmpReg)));
  std::vector<uint8_t> Bytes = assembleAt(A, 0x123450);
  // Pad so the target is inside the region.
  Bytes.resize(0x20, 0);
  RegionAnalysis RA = analyzeRegion(Bytes, 0x123450, 0x123450, RegState());
  ASSERT_EQ(RA.Resolved.size(), 1u);
  EXPECT_EQ(RA.Resolved[0].Target, 0x123458u);
  EXPECT_FALSE(RA.Resolved[0].IsCall);
  // The resolved edge makes the target reachable.
  std::optional<size_t> Idx = RA.G.instrAt(0x123458);
  ASSERT_TRUE(Idx);
  EXPECT_TRUE(RA.instrReachable(*Idx));
}

TEST(ConstProp, CallFallthroughHavocsAllButInfoRegs) {
  Assembler A;
  A.emitLi(5, 42);                  // r5 = 42
  A.emitLi(silver::abi::MemStartReg, 7);    // r1 = 7
  A.label("callsite");
  A.emitCall("callee");             // link in LinkReg
  A.label("after");
  A.emit(Instruction::normal(Func::Add, 6, R(5), R(1)));
  A.emitHalt();
  A.label("callee");
  A.emitRet();
  std::vector<uint8_t> Bytes = assembleAt(A, 0);
  RegionAnalysis RA = analyzeRegion(Bytes, 0, 0, RegState());
  // At "after", r1 survives the call, r5 does not.
  // Find the add instruction (WReg == 6).
  bool Found = false;
  for (size_t I = 0; I != RA.G.Instrs.size(); ++I) {
    const assembler::DecodedInstr &D = RA.G.Instrs[I];
    if (D.Valid && D.Instr.Op == isa::Opcode::Normal && D.Instr.WReg == 6) {
      Found = true;
      EXPECT_TRUE(RA.Consts.InstrIn[I].Regs[silver::abi::MemStartReg]);
      EXPECT_FALSE(RA.Consts.InstrIn[I].Regs[5]);
    }
  }
  EXPECT_TRUE(Found);
}

TEST(RegSummary, TracksDefsAndUses) {
  RegSummary S;
  accumulateDefUse(Instruction::storeMem(R(5), R(6)), S);
  accumulateDefUse(Instruction::loadMem(7, R(8)), S);
  EXPECT_TRUE(S.uses(5));
  EXPECT_TRUE(S.uses(6));
  EXPECT_TRUE(S.uses(8));
  EXPECT_TRUE(S.defs(7));
  EXPECT_FALSE(S.defs(5));
  EXPECT_FALSE(S.uses(7));
}

// --- Verilog linter -----------------------------------------------------------

namespace {

/// A small clean module: input i8, output o8, intermediate a, state s.
VModule makeCleanModule() {
  VModule M;
  M.Ports.push_back({VPort::Dir::Input, "i8", VType::vec(8)});
  M.Ports.push_back({VPort::Dir::Output, "o8", VType::vec(8)});
  M.Decls.push_back({"a", VType::vec(8)});
  M.Decls.push_back({"s", VType::vec(8)});
  M.Decls.push_back({"m", VType::mem(8, 4)});

  std::vector<VStmtPtr> Body;
  Body.push_back(vBlocking("a", vBinary(BinaryOp::Add, vVar("i8"),
                                        vMemRead("m", vConstVec(2, 1)))));
  Body.push_back(vBlocking("o8", vVar("a")));
  Body.push_back(vNonBlocking("s", vVar("a")));
  Body.push_back(vMemWrite("m", vConstVec(2, 0), vVar("s")));
  VProcess P;
  P.Body = vBlock(std::move(Body));
  M.Processes.push_back(std::move(P));
  return M;
}

bool hasRule(const std::vector<Finding> &Diags, Rule Kind) {
  for (const Finding &D : Diags)
    if (D.Kind == Kind)
      return true;
  return false;
}

std::string dump(const std::vector<Finding> &Diags) {
  std::string Out;
  for (const Finding &D : Diags)
    Out += formatFinding(D) + "\n";
  return Out;
}

} // namespace

TEST(VerilogLint, CleanModuleHasNoDiagnostics) {
  VModule M = makeCleanModule();
  std::vector<Finding> Diags = checkModule(M);
  EXPECT_TRUE(Diags.empty()) << dump(Diags);
  EXPECT_TRUE(hdl::typeCheck(M));
}

TEST(VerilogLint, GeneratedCoreIsClean) {
  cpu::SilverCore Core = cpu::buildSilverCore();
  Result<VModule> Module = rtl::toVerilog(Core.Circuit);
  ASSERT_TRUE(Module) << Module.error().str();
  std::vector<Finding> Diags = checkModule(*Module);
  EXPECT_TRUE(Diags.empty()) << dump(Diags);
}

TEST(VerilogLint, MultiDriver) {
  VModule M = makeCleanModule();
  VProcess P;
  P.Body = vBlock([] {
    std::vector<VStmtPtr> B;
    B.push_back(vNonBlocking("s", vConstVec(8, 1)));
    return B;
  }());
  M.Processes.push_back(std::move(P));
  std::vector<Finding> Diags = checkModule(M);
  EXPECT_TRUE(hasRule(Diags, Rule::MultiDriver)) << dump(Diags);
  // The fail-fast checker agrees this module is broken.
  EXPECT_FALSE(hdl::typeCheck(M));
}

TEST(VerilogLint, MixedAssign) {
  VModule M = makeCleanModule();
  // Blocking-assign the state variable s in the same process.
  M.Processes[0].Body->Stmts.push_back(vBlocking("s", vConstVec(8, 3)));
  std::vector<Finding> Diags = checkModule(M);
  EXPECT_TRUE(hasRule(Diags, Rule::MixedAssign)) << dump(Diags);
}

TEST(VerilogLint, NonLocalIntermediate) {
  VModule M = makeCleanModule();
  M.Decls.push_back({"t", VType::vec(8)});
  VProcess P;
  P.Body = vBlock([] {
    std::vector<VStmtPtr> B;
    B.push_back(vNonBlocking("t", vVar("a"))); // reads process 0's 'a'
    return B;
  }());
  M.Processes.push_back(std::move(P));
  std::vector<Finding> Diags = checkModule(M);
  EXPECT_TRUE(hasRule(Diags, Rule::NonLocalIntermediate)) << dump(Diags);
}

TEST(VerilogLint, ReadBeforeWrite) {
  VModule M = makeCleanModule();
  // Read 'a' before its blocking assignment.
  auto &Stmts = M.Processes[0].Body->Stmts;
  Stmts.insert(Stmts.begin(), vBlocking("o8", vVar("a")));
  std::vector<Finding> Diags = checkModule(M);
  EXPECT_TRUE(hasRule(Diags, Rule::ReadBeforeWrite)) << dump(Diags);
  ASSERT_FALSE(Diags.empty());
  EXPECT_EQ(Diags[0].Process, 0);
  EXPECT_EQ(Diags[0].Path, "body/s0");
}

TEST(VerilogLint, ReadAfterPartialWriteStillFires) {
  // 'a' assigned only on one branch of an If, then read.
  VModule M = makeCleanModule();
  auto &Stmts = M.Processes[0].Body->Stmts;
  Stmts.clear();
  Stmts.push_back(vIf(vConstBool(true), vBlocking("a", vConstVec(8, 1)),
                      nullptr));
  Stmts.push_back(vBlocking("o8", vVar("a")));
  std::vector<Finding> Diags = checkModule(M);
  EXPECT_TRUE(hasRule(Diags, Rule::ReadBeforeWrite)) << dump(Diags);
}

TEST(VerilogLint, BothBranchesAssignIsClean) {
  VModule M = makeCleanModule();
  auto &Stmts = M.Processes[0].Body->Stmts;
  Stmts.clear();
  Stmts.push_back(vIf(vConstBool(true), vBlocking("a", vConstVec(8, 1)),
                      vBlocking("a", vConstVec(8, 2))));
  Stmts.push_back(vBlocking("o8", vVar("a")));
  std::vector<Finding> Diags = checkModule(M);
  EXPECT_TRUE(Diags.empty()) << dump(Diags);
}

TEST(VerilogLint, WidthMismatch) {
  VModule M = makeCleanModule();
  M.Processes[0].Body->Stmts.push_back(vBlocking(
      "a", vBinary(BinaryOp::Add, vVar("a"), vConstVec(4, 1))));
  std::vector<Finding> Diags = checkModule(M);
  EXPECT_TRUE(hasRule(Diags, Rule::WidthMismatch)) << dump(Diags);
}

TEST(VerilogLint, Undeclared) {
  VModule M = makeCleanModule();
  M.Processes[0].Body->Stmts.push_back(vBlocking("a", vVar("ghost")));
  std::vector<Finding> Diags = checkModule(M);
  EXPECT_TRUE(hasRule(Diags, Rule::Undeclared)) << dump(Diags);
}

TEST(VerilogLint, InputWrite) {
  VModule M = makeCleanModule();
  M.Processes[0].Body->Stmts.push_back(vBlocking("i8", vConstVec(8, 0)));
  std::vector<Finding> Diags = checkModule(M);
  EXPECT_TRUE(hasRule(Diags, Rule::InputWrite)) << dump(Diags);
}

TEST(VerilogLint, MemBounds) {
  VModule M = makeCleanModule();
  // m has depth 4; constant index 7 on a read and a write.
  M.Processes[0].Body->Stmts.push_back(
      vBlocking("a", vMemRead("m", vConstVec(3, 7))));
  M.Processes[0].Body->Stmts.push_back(
      vMemWrite("m", vConstVec(3, 7), vVar("a")));
  std::vector<Finding> Diags = checkModule(M);
  size_t Bounds = 0;
  for (const Finding &D : Diags)
    Bounds += D.Kind == Rule::MemBounds;
  EXPECT_EQ(Bounds, 2u) << dump(Diags);
}

TEST(VerilogLint, TypeError) {
  VModule M = makeCleanModule();
  // Memory used as a plain variable.
  M.Processes[0].Body->Stmts.push_back(vBlocking("a", vVar("m")));
  std::vector<Finding> Diags = checkModule(M);
  EXPECT_TRUE(hasRule(Diags, Rule::TypeError)) << dump(Diags);
}

TEST(VerilogLint, CollectsMultipleDiagnostics) {
  // Unlike hdl::typeCheck, checkModule reports everything at once.
  VModule M = makeCleanModule();
  M.Processes[0].Body->Stmts.push_back(vBlocking("a", vVar("ghost")));
  M.Processes[0].Body->Stmts.push_back(vBlocking("i8", vConstVec(8, 0)));
  std::vector<Finding> Diags = checkModule(M);
  EXPECT_TRUE(hasRule(Diags, Rule::Undeclared)) << dump(Diags);
  EXPECT_TRUE(hasRule(Diags, Rule::InputWrite)) << dump(Diags);
}

// --- image audit --------------------------------------------------------------

namespace {

sys::LayoutParams smallParams() {
  sys::LayoutParams P;
  P.MemSize = 1u << 20;
  P.StdinCap = 4096;
  P.OutBufCap = 4096;
  return P;
}

/// Builds an image whose program is the given assembler body.
Result<sys::MemoryImage> buildTestImage(const Assembler &A,
                                        Word &ProgramSizeOut) {
  sys::LayoutParams P = smallParams();
  // First compute the layout with a placeholder size to learn CodeBase.
  Result<sys::MemoryLayout> L0 = sys::MemoryLayout::compute(P, 4096);
  if (!L0)
    return L0.error();
  Result<assembler::Assembled> Prog = A.assemble(L0->CodeBase);
  if (!Prog)
    return Prog.error();
  sys::ImageSpec Spec;
  Spec.CommandLine = {"prog"};
  Spec.Program = Prog->Bytes;
  Spec.Params = P;
  ProgramSizeOut = static_cast<Word>(Prog->Bytes.size());
  return sys::buildImage(Spec);
}

bool hasRule(const std::vector<Diagnostic> &Diags, const std::string &Id) {
  for (const Diagnostic &D : Diags)
    if (D.Id == Id)
      return true;
  return false;
}

std::string dump(const std::vector<Diagnostic> &Diags) {
  std::string Out;
  for (const Diagnostic &D : Diags)
    Out += formatDiagnostic(D) + "\n";
  return Out;
}

/// Overwrites the word at \p Addr in the image.
void patchWord(sys::MemoryImage &Image, Word Addr, Word Value) {
  Image.Memory[Addr] = Value & 0xff;
  Image.Memory[Addr + 1] = (Value >> 8) & 0xff;
  Image.Memory[Addr + 2] = (Value >> 16) & 0xff;
  Image.Memory[Addr + 3] = (Value >> 24) & 0xff;
}

/// A word that does not decode (needed by the decode mutant).
Word findInvalidWord() {
  for (Word W = 0xffffffffu; W > 0xf0000000u; --W)
    if (!isa::decode(W))
      return W;
  return 0;
}

} // namespace

TEST(ImageAudit, TrivialImageIsClean) {
  Assembler A;
  A.emitHalt();
  Word ProgSize = 0;
  Result<sys::MemoryImage> Image = buildTestImage(A, ProgSize);
  ASSERT_TRUE(Image) << Image.error().str();
  AuditReport R = auditImage(*Image, ProgSize);
  EXPECT_TRUE(R.ok()) << dump(R.Diags);
  // The startup handoff to CodeBase is resolved.
  ASSERT_EQ(R.Startup.Resolved.size(), 1u);
  EXPECT_EQ(R.Startup.Resolved[0].Target, Image->Layout.CodeBase);
}

TEST(ImageAudit, LayoutMutant) {
  Assembler A;
  A.emitHalt();
  Word ProgSize = 0;
  Result<sys::MemoryImage> Image = buildTestImage(A, ProgSize);
  ASSERT_TRUE(Image);
  Image->Layout.HeapEnd += 8; // overlaps the program, breaks HeapEnd==CodeBase
  AuditReport R = auditImage(*Image, ProgSize);
  EXPECT_TRUE(hasRule(R.Diags, "img-layout")) << dump(R.Diags);
}

TEST(ImageAudit, DecodeMutant) {
  Assembler A;
  A.emitHalt();
  Word ProgSize = 0;
  Result<sys::MemoryImage> Image = buildTestImage(A, ProgSize);
  ASSERT_TRUE(Image);
  Word Invalid = findInvalidWord();
  ASSERT_NE(Invalid, 0u) << "no invalid encoding found";
  patchWord(*Image, Image->Layout.CodeBase, Invalid);
  AuditReport R = auditImage(*Image, ProgSize);
  EXPECT_TRUE(hasRule(R.Diags, "img-decode")) << dump(R.Diags);
}

TEST(ImageAudit, JumpOutsideCodeMutant) {
  // li TmpReg, HeapBase; jump snd TmpReg — a resolved transfer into data.
  sys::LayoutParams P = smallParams();
  Result<sys::MemoryLayout> L0 = sys::MemoryLayout::compute(P, 4096);
  ASSERT_TRUE(L0);
  Assembler A;
  A.emitLi(silver::abi::TmpReg, L0->HeapBase);
  A.emit(Instruction::jump(Func::Snd, silver::abi::TmpReg, R(silver::abi::TmpReg)));
  Word ProgSize = 0;
  Result<sys::MemoryImage> Image = buildTestImage(A, ProgSize);
  ASSERT_TRUE(Image);
  AuditReport Rep = auditImage(*Image, ProgSize);
  EXPECT_TRUE(hasRule(Rep.Diags, "img-jump-target")) << dump(Rep.Diags);
}

TEST(ImageAudit, JumpIntoSyscallMiddleMutant) {
  // A call into the syscall region away from the dispatch entry point.
  sys::LayoutParams P = smallParams();
  Result<sys::MemoryLayout> L0 = sys::MemoryLayout::compute(P, 4096);
  ASSERT_TRUE(L0);
  Assembler A;
  A.emitLi(silver::abi::TmpReg, L0->SyscallCodeBase + 8);
  A.emit(Instruction::jump(Func::Snd, silver::abi::LinkReg, R(silver::abi::TmpReg)));
  A.emitHalt();
  Word ProgSize = 0;
  Result<sys::MemoryImage> Image = buildTestImage(A, ProgSize);
  ASSERT_TRUE(Image);
  AuditReport Rep = auditImage(*Image, ProgSize);
  EXPECT_TRUE(hasRule(Rep.Diags, "img-jump-target")) << dump(Rep.Diags);
}

TEST(ImageAudit, WriteToCodeMutant) {
  // Store a word over the program's own first instruction.
  sys::LayoutParams P = smallParams();
  Result<sys::MemoryLayout> L0 = sys::MemoryLayout::compute(P, 4096);
  ASSERT_TRUE(L0);
  Assembler A;
  A.emitLi(5, L0->CodeBase);
  A.emit(Instruction::storeMem(R(5), R(5)));
  A.emitHalt();
  Word ProgSize = 0;
  Result<sys::MemoryImage> Image = buildTestImage(A, ProgSize);
  ASSERT_TRUE(Image);
  AuditReport Rep = auditImage(*Image, ProgSize);
  EXPECT_TRUE(hasRule(Rep.Diags, "img-write-to-code")) << dump(Rep.Diags);
}

TEST(ImageAudit, StoreToHeapIsClean) {
  sys::LayoutParams P = smallParams();
  Result<sys::MemoryLayout> L0 = sys::MemoryLayout::compute(P, 4096);
  ASSERT_TRUE(L0);
  Assembler A;
  A.emitLi(5, L0->HeapBase);
  A.emit(Instruction::storeMem(R(5), R(5)));
  A.emitHalt();
  Word ProgSize = 0;
  Result<sys::MemoryImage> Image = buildTestImage(A, ProgSize);
  ASSERT_TRUE(Image);
  AuditReport Rep = auditImage(*Image, ProgSize);
  EXPECT_TRUE(Rep.ok()) << dump(Rep.Diags);
}

TEST(ImageAudit, SyscallClobberMutant) {
  Assembler A;
  A.emitHalt();
  Word ProgSize = 0;
  Result<sys::MemoryImage> Image = buildTestImage(A, ProgSize);
  ASSERT_TRUE(Image);
  // Patch the syscall entry to write r10 (outside the permitted set).
  patchWord(*Image, Image->Layout.SyscallCodeBase,
            isa::encode(Instruction::normal(Func::Add, 10, Operand::imm(1),
                                            Operand::imm(1))));
  AuditReport R = auditImage(*Image, ProgSize);
  EXPECT_TRUE(hasRule(R.Diags, "img-syscall-clobber")) << dump(R.Diags);
}

TEST(ImageAudit, SyscallRegionFootprintWithinClobberSet) {
  Assembler A;
  A.emitHalt();
  Word ProgSize = 0;
  Result<sys::MemoryImage> Image = buildTestImage(A, ProgSize);
  ASSERT_TRUE(Image);
  AuditReport R = auditImage(*Image, ProgSize);
  // The real syscall code touches the argument and scratch registers but
  // never the link register or the allocator pool.
  EXPECT_TRUE(R.SyscallSummary.defs(silver::abi::TmpReg));
  EXPECT_FALSE(R.SyscallSummary.defs(silver::abi::LinkReg));
  EXPECT_FALSE(R.SyscallSummary.defs(10));
}

TEST(ImageAudit, CompiledAppsAreClean) {
  const char *Sources[] = {stack::helloSource(), stack::wcSource(),
                           stack::sortSource()};
  for (const char *Source : Sources) {
    stack::RunSpec Spec;
    Spec.Source = Source;
    Result<stack::Prepared> P = stack::prepare(Spec);
    ASSERT_TRUE(P) << P.error().str();
    Result<AuditReport> R = stack::auditPrepared(*P);
    ASSERT_TRUE(R) << R.error().str();
    EXPECT_TRUE(R->ok()) << dump(R->Diags);
    // Real programs exercise the analysis: FFI calls resolve into the
    // syscall region, far jumps resolve in the program region.
    EXPECT_GT(R->Program.Resolved.size(), 10u);
    EXPECT_FALSE(R->Syscall.Resolved.empty());
  }
}
