//===- analysis/ImageAudit.cpp - Static audit of bootable images -----------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "analysis/ImageAudit.h"

#include "isa/Abi.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace silver;
using namespace silver::analysis;
using sys::MemoryLayout;

namespace {

/// The three code regions of Fig. 2.
enum class CodeRegion : uint8_t { Startup, Syscall, Program };

const char *regionName(CodeRegion R) {
  switch (R) {
  case CodeRegion::Startup:
    return "startup";
  case CodeRegion::Syscall:
    return "syscall";
  case CodeRegion::Program:
    return "program";
  }
  return "?";
}

/// The audit pass over one image.
class Auditor {
public:
  Auditor(const sys::MemoryImage &Image, Word ProgramSize)
      : Image(Image), L(Image.Layout), ProgramSize(ProgramSize) {}

  AuditReport run();

private:
  const sys::MemoryImage &Image;
  const MemoryLayout &L;
  Word ProgramSize;
  AuditReport R;

  void layoutDiag(std::string Message) {
    Diagnostic D;
    D.Id = "img-layout";
    D.Message = std::move(Message);
    R.Diags.push_back(std::move(D));
  }
  void diag(const char *Id, CodeRegion Region, Word Addr,
            std::string Message) {
    Diagnostic D;
    D.Id = Id;
    D.Subject = regionName(Region);
    D.HasAddr = true;
    D.Addr = Addr;
    D.Message = std::move(Message);
    R.Diags.push_back(std::move(D));
  }

  void checkLayout();
  std::vector<uint8_t> slice(Word Base, Word End) const;
  const RegionAnalysis &analysisOf(CodeRegion Region) const;
  std::optional<CodeRegion> regionOf(Word Addr) const;
  bool hitsReachableCode(Word Addr, Word Len) const;
  void checkTarget(CodeRegion From, Word FromAddr, Word Target);
  void checkRegion(CodeRegion Region);
};

void Auditor::checkLayout() {
  const sys::LayoutParams &P = L.Params;
  if (Image.Memory.size() != P.MemSize)
    layoutDiag("image is " + std::to_string(Image.Memory.size()) +
               " bytes but the layout expects " + std::to_string(P.MemSize));

  struct NamedRegion {
    const char *Name;
    Word Base, End;
  };
  const NamedRegion Regions[] = {
      {"startup", L.StartupBase, L.StartupBase + P.StartupCap},
      {"descriptor", L.DescriptorBase, L.DescriptorBase + 8 * 4},
      {"exit-flag", L.ExitFlagAddr, L.ExitFlagAddr + 4},
      {"exit-code", L.ExitCodeAddr, L.ExitCodeAddr + 4},
      {"cmdline", L.CmdlineBase, L.CmdlineBase + 4 + P.CmdlineCap},
      {"stdin", L.StdinBase, L.StdinBase + 8 + P.StdinCap},
      {"outbuf", L.OutBufBase, L.OutBufBase + 8 + P.OutBufCap},
      {"syscall-id", L.SyscallIdAddr, L.SyscallIdAddr + 4},
      {"syscall-code", L.SyscallCodeBase,
       L.SyscallCodeBase + P.SyscallCodeCap},
      {"usable", L.HeapBase, L.HeapEnd},
      {"program", L.CodeBase, P.MemSize},
  };
  for (const NamedRegion &Rg : Regions) {
    if (!isAligned(Rg.Base, 4))
      layoutDiag(std::string(Rg.Name) + " region base " + toHex(Rg.Base) +
                 " is not word-aligned");
    if (Rg.End < Rg.Base || Rg.End > P.MemSize)
      layoutDiag(std::string(Rg.Name) + " region [" + toHex(Rg.Base) + ", " +
                 toHex(Rg.End) + ") exceeds memory");
  }
  for (size_t I = 0; I + 1 < std::size(Regions); ++I)
    if (Regions[I].End > Regions[I + 1].Base)
      layoutDiag(std::string(Regions[I].Name) + " region overlaps " +
                 Regions[I + 1].Name + " (" + toHex(Regions[I].End) + " > " +
                 toHex(Regions[I + 1].Base) + ")");
  if (L.HeapEnd != L.CodeBase)
    layoutDiag("usable memory must end exactly at the program region");
}

std::vector<uint8_t> Auditor::slice(Word Base, Word End) const {
  Base = std::min<Word>(Base, static_cast<Word>(Image.Memory.size()));
  End = std::min<Word>(End, static_cast<Word>(Image.Memory.size()));
  if (End < Base)
    End = Base;
  return {Image.Memory.begin() + Base, Image.Memory.begin() + End};
}

const RegionAnalysis &Auditor::analysisOf(CodeRegion Region) const {
  switch (Region) {
  case CodeRegion::Startup:
    return R.Startup;
  case CodeRegion::Syscall:
    return R.Syscall;
  case CodeRegion::Program:
    return R.Program;
  }
  return R.Startup;
}

std::optional<CodeRegion> Auditor::regionOf(Word Addr) const {
  for (CodeRegion Region :
       {CodeRegion::Startup, CodeRegion::Syscall, CodeRegion::Program})
    if (analysisOf(Region).G.contains(Addr))
      return Region;
  return std::nullopt;
}

bool Auditor::hitsReachableCode(Word Addr, Word Len) const {
  for (CodeRegion Region :
       {CodeRegion::Startup, CodeRegion::Syscall, CodeRegion::Program}) {
    const RegionAnalysis &A = analysisOf(Region);
    const Cfg &G = A.G;
    if (G.Instrs.empty() || Addr + Len <= G.Base || Addr >= G.endAddr())
      continue;
    size_t Lo = Addr <= G.Base ? 0 : (Addr - G.Base) / 4;
    size_t Hi = std::min<size_t>(G.Instrs.size() - 1,
                                 (std::min(Addr + Len, G.endAddr()) - 1 -
                                  G.Base) /
                                     4);
    for (size_t I = Lo; I <= Hi; ++I)
      if (A.instrReachable(I))
        return true;
  }
  return false;
}

void Auditor::checkTarget(CodeRegion From, Word FromAddr, Word Target) {
  std::optional<CodeRegion> To = regionOf(Target);
  if (!To) {
    diag("img-jump-target", From, FromAddr,
         "transfer to " + toHex(Target) + " lands outside the code regions");
    return;
  }
  if (*To == From) {
    if (!analysisOf(From).G.instrAt(Target))
      diag("img-jump-target", From, FromAddr,
           "transfer to misaligned address " + toHex(Target));
    return;
  }
  // Cross-region transfers must enter at the region's sole entry point:
  // the FFI dispatch for the syscall code (installed (i)), the program's
  // first instruction for the program region (the startup handoff).
  // Nothing may jump back into the startup code.
  std::optional<Word> Entry;
  if (*To == CodeRegion::Syscall)
    Entry = L.SyscallCodeBase;
  else if (*To == CodeRegion::Program)
    Entry = L.CodeBase;
  if (!Entry || Target != *Entry)
    diag("img-jump-target", From, FromAddr,
         "transfer to " + toHex(Target) + " enters the " +
             regionName(*To) + " region away from its entry point");
}

void Auditor::checkRegion(CodeRegion Region) {
  const RegionAnalysis &A = analysisOf(Region);
  const Cfg &G = A.G;
  for (size_t I = 0, E = G.Instrs.size(); I != E; ++I) {
    if (!A.instrReachable(I))
      continue;
    const assembler::DecodedInstr &D = G.Instrs[I];
    if (!D.Valid) {
      diag("img-decode", Region, D.Addr,
           "reachable word " + toHex(D.Encoded) + " does not decode");
      continue;
    }
    if (Flow F = flowOf(D); F.Target)
      checkTarget(Region, D.Addr, *F.Target);
    if (D.Instr.Op == isa::Opcode::StoreMEM ||
        D.Instr.Op == isa::Opcode::StoreMEMByte) {
      Word Len = D.Instr.Op == isa::Opcode::StoreMEM ? 4 : 1;
      if (std::optional<Word> Addr = ConstProp::operandValue(
              D.Instr.B, A.Consts.InstrIn[I]))
        if (hitsReachableCode(*Addr, Len))
          diag("img-write-to-code", Region, D.Addr,
               "store to " + toHex(*Addr) +
                   " targets reachable instruction bytes");
    }
  }
  for (const ResolvedJump &J : A.Resolved)
    checkTarget(Region, J.FromAddr, J.Target);
}

AuditReport Auditor::run() {
  R.Layout = L;
  checkLayout();

  // Constants established by the startup code (installed (i)): the info
  // registers seed the syscall and program analyses, which is what lets
  // constant propagation resolve `jump snd r3` FFI call sequences.
  RegState Installed;
  Installed.Regs[abi::MemStartReg] = L.HeapBase;
  Installed.Regs[abi::MemEndReg] = L.HeapEnd;
  Installed.Regs[abi::FfiTableReg] = L.SyscallCodeBase;
  Installed.Regs[abi::LayoutReg] = L.DescriptorBase;

  const sys::LayoutParams &P = L.Params;
  R.Startup = analyzeRegion(slice(L.StartupBase, L.StartupBase + P.StartupCap),
                            L.StartupBase, L.StartupBase, RegState());
  R.Syscall =
      analyzeRegion(slice(L.SyscallCodeBase,
                          L.SyscallCodeBase + P.SyscallCodeCap),
                    L.SyscallCodeBase, L.SyscallCodeBase, Installed);
  Word ProgramEnd =
      ProgramSize ? L.CodeBase + alignUp(ProgramSize, 4) : P.MemSize;
  R.Program = analyzeRegion(slice(L.CodeBase, ProgramEnd), L.CodeBase,
                            L.CodeBase, Installed);

  for (CodeRegion Region :
       {CodeRegion::Startup, CodeRegion::Syscall, CodeRegion::Program})
    checkRegion(Region);

  // The syscall code's register footprint must stay inside the clobber
  // set the interference oracle is allowed (paper §6; the dynamic check
  // is machine::checkInterferenceImpl).
  R.SyscallSummary =
      summarizeRegion(R.Syscall.G, R.Syscall.Consts.Solved.Reachable);
  uint64_t Permitted = 0;
  for (unsigned Reg : sys::syscallClobberedRegs())
    Permitted |= uint64_t(1) << Reg;
  uint64_t Bad = R.SyscallSummary.Defs & ~Permitted;
  for (unsigned Reg = 0; Reg != isa::NumRegs; ++Reg)
    if ((Bad >> Reg) & 1)
      diag("img-syscall-clobber", CodeRegion::Syscall,
           L.SyscallCodeBase,
           "syscall code writes r" + std::to_string(Reg) +
               ", outside the permitted clobber set");
  return std::move(R);
}

} // namespace

AuditReport silver::analysis::auditImage(const sys::MemoryImage &Image,
                                         Word ProgramSize) {
  return Auditor(Image, ProgramSize).run();
}
