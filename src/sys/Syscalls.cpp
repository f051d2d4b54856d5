//===- sys/Syscalls.cpp - Bare-metal system calls for Silver ---------------===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//

#include "sys/Syscalls.h"

#include "isa/Abi.h"

using namespace silver;
using namespace silver::sys;
using assembler::Assembler;
using isa::Func;
using isa::Instruction;
using isa::Operand;
using isa::ShiftKind;

// Scratch registers available to syscall code.  TmpReg (r63) is reserved
// for the assembler's far-branch sequences and never holds a live value.
namespace {
constexpr unsigned T0 = abi::SysTmpReg;  // r56
constexpr unsigned T1 = abi::SysTmp2Reg; // r57
constexpr unsigned T2 = abi::Tmp2Reg;    // r62
constexpr unsigned Idx = 5;              // argument registers double as
constexpr unsigned Conf = 6;             // scratch once consumed
constexpr unsigned ConfLen = 7;
constexpr unsigned Buf = 8;
constexpr unsigned BufLen = 9;
} // namespace

const std::vector<unsigned> &silver::sys::syscallClobberedRegs() {
  static const std::vector<unsigned> Regs = {
      Idx, Conf, ConfLen, Buf, BufLen, T0, T1, T2, abi::TmpReg};
  return Regs;
}

void silver::sys::recordFfiCall(ffi::IoTrace &Trace,
                                const std::array<Word, isa::NumRegs> &Regs,
                                const isa::MachineState &Memory) {
  auto Span = [&](unsigned PtrReg, unsigned LenReg) {
    size_t Ptr = std::min<size_t>(Regs[PtrReg], Memory.memSize());
    size_t Len = std::min<size_t>(Regs[LenReg], Memory.memSize() - Ptr);
    return std::make_pair(Memory.Memory.data() + Ptr, Len);
  };
  auto [Conf, ConfLen] = Span(abi::FfiConfReg, abi::FfiConfLenReg);
  auto [Bytes, BytesLen] = Span(abi::FfiBytesReg, abi::FfiBytesLenReg);
  if (std::optional<ffi::IoEvent> E =
          ffi::ioEvent(Regs[abi::FfiIndexReg],
                       std::vector<uint8_t>(Conf, Conf + ConfLen), Bytes,
                       BytesLen))
    Trace.push_back(std::move(*E));
}

static Operand R(unsigned Reg) { return Operand::reg(Reg); }
static Operand Imm(int32_t V) { return Operand::imm(V); }

/// addi Dst, Src, K  (K in [-32, 31])
static void addImm(Assembler &A, unsigned Dst, unsigned Src, int32_t K) {
  A.emit(Instruction::normal(Func::Add, Dst, R(Src), Imm(K)));
}

/// mov Dst, Src
static void mov(Assembler &A, unsigned Dst, unsigned Src) {
  A.emit(Instruction::normal(Func::Snd, Dst, Imm(0), R(Src)));
}

/// Dst = small constant (fits in a 6-bit signed operand).
static void movImm(Assembler &A, unsigned Dst, int32_t K) {
  A.emit(Instruction::normal(Func::Snd, Dst, Imm(0), Imm(K)));
}

/// Branch to \p Label when RegA == K.
static void branchIfEqImm(Assembler &A, unsigned RegA, int32_t K,
                          const std::string &Label) {
  A.emitBranch(/*WhenZero=*/false, Func::Equal, R(RegA), Imm(K), Label);
}

/// Branch to \p Label when RegA == RegB.
static void branchIfEqReg(Assembler &A, unsigned RegA, unsigned RegB,
                          const std::string &Label) {
  A.emitBranch(/*WhenZero=*/false, Func::Equal, R(RegA), R(RegB), Label);
}

/// Branch to \p Label when Reg == 0.
static void branchIfZero(Assembler &A, unsigned Reg,
                         const std::string &Label) {
  A.emitBranch(/*WhenZero=*/true, Func::Snd, Imm(0), R(Reg), Label);
}

/// Branch to \p Label when Reg != 0.
static void branchIfNotZero(Assembler &A, unsigned Reg,
                            const std::string &Label) {
  A.emitBranch(/*WhenZero=*/false, Func::Snd, Imm(0), R(Reg), Label);
}

/// Loads the byte at Src+K into Dst (clobbers Dst only).
static void loadByteAt(Assembler &A, unsigned Dst, unsigned Src, int32_t K) {
  if (K == 0) {
    A.emit(Instruction::loadMemByte(Dst, R(Src)));
    return;
  }
  addImm(A, Dst, Src, K);
  A.emit(Instruction::loadMemByte(Dst, R(Dst)));
}

/// Stores the low byte of Value at Addr+K, using \p Scratch for the
/// address when K != 0.
static void storeByteAt(Assembler &A, Operand Value, unsigned Addr,
                        int32_t K, unsigned Scratch) {
  if (K == 0) {
    A.emit(Instruction::storeMemByte(Value, R(Addr)));
    return;
  }
  addImm(A, Scratch, Addr, K);
  A.emit(Instruction::storeMemByte(Value, R(Scratch)));
}

/// Reads the 16-bit big-endian value at Src+K into Dst (clobbers Scratch).
static void loadU16At(Assembler &A, unsigned Dst, unsigned Src, int32_t K,
                      unsigned Scratch) {
  loadByteAt(A, Dst, Src, K);
  A.emit(Instruction::shift(ShiftKind::LogicalLeft, Dst, R(Dst), Imm(8)));
  loadByteAt(A, Scratch, Src, K + 1);
  A.emit(Instruction::normal(Func::Or, Dst, R(Dst), R(Scratch)));
}

/// Writes Value (< 2^16) big-endian to Buf[K], Buf[K+1] (clobbers both
/// scratch registers).
static void storeU16At(Assembler &A, unsigned Value, unsigned Base,
                       int32_t K, unsigned Scratch1, unsigned Scratch2) {
  A.emit(
      Instruction::shift(ShiftKind::LogicalRight, Scratch1, R(Value), Imm(8)));
  storeByteAt(A, R(Scratch1), Base, K, Scratch2);
  storeByteAt(A, R(Value), Base, K + 1, Scratch2);
}

/// Emits a byte-copy loop: copies Count bytes from Src to Dst.  Count,
/// Src and Dst are clobbered (Count reaches 0); \p Tmp is scratch.
/// \p Prefix keeps labels unique.
static void emitCopyLoop(Assembler &A, const std::string &Prefix,
                         unsigned Src, unsigned Dst, unsigned Count,
                         unsigned Tmp) {
  A.label(Prefix + "_copy");
  branchIfZero(A, Count, Prefix + "_copy_done");
  A.emit(Instruction::loadMemByte(Tmp, R(Src)));
  A.emit(Instruction::storeMemByte(R(Tmp), R(Dst)));
  A.emit(Instruction::normal(Func::Inc, Src, R(Src), Imm(0)));
  A.emit(Instruction::normal(Func::Inc, Dst, R(Dst), Imm(0)));
  A.emit(Instruction::normal(Func::Dec, Count, R(Count), Imm(0)));
  A.emitJump(Prefix + "_copy");
  A.label(Prefix + "_copy_done");
}

/// Computes the fd from the 8-byte big-endian word at [Conf]: leaves the
/// OR of the first seven bytes in \p HighOr and the last byte in \p Low.
/// Clobbers T2.
static void emitLoadFd(Assembler &A, const std::string &Prefix,
                       unsigned HighOr, unsigned Low) {
  movImm(A, HighOr, 0);
  mov(A, T2, Conf);
  addImm(A, Low, Conf, 7); // end pointer (address of the final byte)
  A.label(Prefix + "_fd");
  branchIfEqReg(A, T2, Low, Prefix + "_fd_done");
  A.emit(Instruction::loadMemByte(T1, R(T2)));
  A.emit(Instruction::normal(Func::Or, HighOr, R(HighOr), R(T1)));
  A.emit(Instruction::normal(Func::Inc, T2, R(T2), Imm(0)));
  A.emitJump(Prefix + "_fd");
  A.label(Prefix + "_fd_done");
  A.emit(Instruction::loadMemByte(Low, R(Low)));
}

/// The shared failure epilogue: bytes[0] = 1; return.
static void emitFailReturn(Assembler &A) {
  A.emit(Instruction::storeMemByte(Imm(1), R(Buf)));
  A.emitRet();
}

// --- read -----------------------------------------------------------------

static void emitRead(Assembler &A, const MemoryLayout &L) {
  A.label("sys_read");
  // fd must be 0 (stdin).  HighOr in T0, low byte in Idx.
  emitLoadFd(A, "rd", T0, Idx);
  A.emit(Instruction::normal(Func::Or, T0, R(T0), R(Idx)));
  branchIfNotZero(A, T0, "rd_fail");
  // T0 = requested count n (bytes[0..1], big-endian).
  loadU16At(A, T0, Buf, 0, T1);
  // Fail when bytesLen - 4 < n (the oracle's otherwise-branch).
  A.emit(Instruction::normal(Func::Sub, T1, R(BufLen), Imm(4)));
  A.emit(Instruction::normal(Func::Lower, T2, R(T1), R(T0)));
  branchIfNotZero(A, T2, "rd_fail");
  // Stdin region: T1 = StdinBase+4 (offset cell), Idx = offset, T2 = rem.
  A.emitLi(T1, L.StdinBase);
  A.emit(Instruction::loadMem(T2, R(T1))); // len
  addImm(A, T1, T1, 4);
  A.emit(Instruction::loadMem(Idx, R(T1))); // off
  A.emit(Instruction::normal(Func::Sub, T2, R(T2), R(Idx)));
  // k = min(n, rem): T0 currently n.
  A.emit(Instruction::normal(Func::Lower, Conf, R(T2), R(T0)));
  branchIfZero(A, Conf, "rd_have_k");
  mov(A, T0, T2);
  A.label("rd_have_k");
  // Store the advanced offset: Idx = off + k.
  A.emit(Instruction::normal(Func::Add, Idx, R(Idx), R(T0)));
  A.emit(Instruction::storeMem(R(Idx), R(T1)));
  // Result header: bytes[0]=0, bytes[1..2]=k.
  A.emit(Instruction::storeMemByte(Imm(0), R(Buf)));
  storeU16At(A, T0, Buf, 1, T2, Conf);
  // Source = StdinBase+8 + old offset (Idx-k); Dest = bytes+4.
  A.emit(Instruction::normal(Func::Sub, T2, R(Idx), R(T0)));
  addImm(A, T1, T1, 4); // StdinBase + 8
  A.emit(Instruction::normal(Func::Add, T1, R(T1), R(T2)));
  addImm(A, T2, Buf, 4);
  emitCopyLoop(A, "rd", /*Src=*/T1, /*Dst=*/T2, /*Count=*/T0, /*Tmp=*/Conf);
  A.emitRet();
  A.label("rd_fail");
  emitFailReturn(A);
}

// --- write ----------------------------------------------------------------

static void emitWrite(Assembler &A, const MemoryLayout &L) {
  A.label("sys_write");
  emitLoadFd(A, "wr", T0, Idx);
  branchIfNotZero(A, T0, "wr_fail");
  branchIfEqImm(A, Idx, 1, "wr_fd_ok");
  branchIfEqImm(A, Idx, 2, "wr_fd_ok");
  A.emitJump("wr_fail");
  A.label("wr_fd_ok");
  // T0 = count n, T1 = payload offset.
  loadU16At(A, T0, Buf, 0, T2);
  loadU16At(A, T1, Buf, 2, T2);
  // Fail when off + n > bytesLen - 4.
  A.emit(Instruction::normal(Func::Add, Conf, R(T1), R(T0)));
  A.emit(Instruction::normal(Func::Sub, T2, R(BufLen), Imm(4)));
  A.emit(Instruction::normal(Func::Lower, T2, R(T2), R(Conf)));
  branchIfNotZero(A, T2, "wr_fail");
  // Output buffer header: id = fd, len = n.
  A.emitLi(T2, L.OutBufBase);
  A.emit(Instruction::storeMem(R(Idx), R(T2)));
  addImm(A, Conf, T2, 4);
  A.emit(Instruction::storeMem(R(T0), R(Conf)));
  // Source = bytes + 4 + off; Dest = OutBufBase + 8.
  A.emit(Instruction::normal(Func::Add, T1, R(T1), R(Buf)));
  addImm(A, T1, T1, 4);
  addImm(A, T2, T2, 8);
  // Keep n for the result header.
  mov(A, BufLen, T0);
  emitCopyLoop(A, "wr", /*Src=*/T1, /*Dst=*/T2, /*Count=*/T0, /*Tmp=*/Conf);
  // Notify the environment (the paper's interrupt interface: the ARM
  // core reacts to text-output requests).
  A.emit(Instruction::interrupt());
  // Result header: bytes[0]=0, bytes[1..2]=n.
  A.emit(Instruction::storeMemByte(Imm(0), R(Buf)));
  storeU16At(A, BufLen, Buf, 1, T2, Conf);
  A.emitRet();
  A.label("wr_fail");
  emitFailReturn(A);
}

// --- command-line calls -----------------------------------------------------

static void emitGetArgCount(Assembler &A, const MemoryLayout &L) {
  A.label("sys_get_arg_count");
  A.emitLi(T0, L.CmdlineBase);
  A.emit(Instruction::loadMem(T1, R(T0))); // joined length
  movImm(A, T2, 0);                        // argc
  branchIfZero(A, T1, "gac_done");
  movImm(A, T2, 1);
  addImm(A, T0, T0, 4); // cursor
  A.emit(Instruction::normal(Func::Add, T1, R(T0), R(T1))); // end
  A.label("gac_loop");
  branchIfEqReg(A, T0, T1, "gac_done");
  A.emit(Instruction::loadMemByte(Idx, R(T0)));
  branchIfNotZero(A, Idx, "gac_next");
  A.emit(Instruction::normal(Func::Inc, T2, R(T2), Imm(0)));
  A.label("gac_next");
  A.emit(Instruction::normal(Func::Inc, T0, R(T0), Imm(0)));
  A.emitJump("gac_loop");
  A.label("gac_done");
  storeU16At(A, T2, Buf, 0, Idx, Conf);
  A.emitRet();
}

/// Inner routine: finds argument #Idx.  Inputs: Idx (valid index).
/// Outputs: T0 = pointer to the argument's first byte, Conf = its length.
/// Link register: T1.  Clobbers Idx, T2, BufLen.
static void emitFindArg(Assembler &A, const MemoryLayout &L) {
  A.label("sys_find_arg");
  A.emitLi(T0, L.CmdlineBase);
  A.emit(Instruction::loadMem(T2, R(T0)));
  addImm(A, T0, T0, 4);
  A.emit(Instruction::normal(Func::Add, T2, R(T0), R(T2))); // end
  A.label("fa_outer");
  branchIfZero(A, Idx, "fa_found");
  A.label("fa_scan"); // advance past the next NUL
  A.emit(Instruction::loadMemByte(Conf, R(T0)));
  A.emit(Instruction::normal(Func::Inc, T0, R(T0), Imm(0)));
  branchIfNotZero(A, Conf, "fa_scan");
  A.emit(Instruction::normal(Func::Dec, Idx, R(Idx), Imm(0)));
  A.emitJump("fa_outer");
  A.label("fa_found");
  // Measure the argument: Conf = length, scanning with Idx as cursor.
  movImm(A, Conf, 0);
  mov(A, Idx, T0);
  A.label("fa_len");
  branchIfEqReg(A, Idx, T2, "fa_len_done");
  A.emit(Instruction::loadMemByte(BufLen, R(Idx)));
  branchIfZero(A, BufLen, "fa_len_done");
  A.emit(Instruction::normal(Func::Inc, Conf, R(Conf), Imm(0)));
  A.emit(Instruction::normal(Func::Inc, Idx, R(Idx), Imm(0)));
  A.emitJump("fa_len");
  A.label("fa_len_done");
  A.emit(Instruction::jump(Func::Snd, abi::TmpReg, R(T1)));
}

static void emitGetArgLength(Assembler &A) {
  A.label("sys_get_arg_length");
  loadU16At(A, Idx, Buf, 0, T0);
  A.emitCall("sys_find_arg", /*LinkReg=*/T1);
  storeU16At(A, Conf, Buf, 0, T0, T2);
  A.emitRet();
}

static void emitGetArg(Assembler &A) {
  A.label("sys_get_arg");
  loadU16At(A, Idx, Buf, 0, T0);
  A.emitCall("sys_find_arg", /*LinkReg=*/T1);
  // Copy Conf bytes from T0 to the byte array.
  mov(A, T2, Buf);
  emitCopyLoop(A, "ga", /*Src=*/T0, /*Dst=*/T2, /*Count=*/Conf,
               /*Tmp=*/Idx);
  A.emitRet();
}

// --- file calls (always fail on bare metal) and exit ------------------------

static void emitOpenClose(Assembler &A) {
  A.label("sys_open"); // open_in and open_out share this body
  A.emit(Instruction::storeMemByte(Imm(1), R(Buf)));
  storeByteAt(A, Imm(0), Buf, 1, T0); // fd = 0 in bytes[1..2]
  storeByteAt(A, Imm(0), Buf, 2, T0);
  A.emitRet();
  A.label("sys_close");
  emitFailReturn(A);
}

static void emitExit(Assembler &A, const MemoryLayout &L) {
  A.label("sys_exit");
  A.emit(Instruction::loadMemByte(Idx, R(Buf)));
  A.emitLi(T0, L.ExitCodeAddr);
  A.emit(Instruction::storeMem(R(Idx), R(T0)));
  A.emitLi(T0, L.ExitFlagAddr);
  A.emit(Instruction::storeMem(Imm(1), R(T0)));
  A.emit(Instruction::interrupt());
  A.emitHalt();
}

Result<assembler::Assembled>
silver::sys::buildSyscallProgram(const MemoryLayout &L) {
  Assembler A;
  A.label("ffi_dispatch");
  // Record the dispatched index (Figure 2's "called id" cell).
  A.emitLi(T0, L.SyscallIdAddr);
  A.emit(Instruction::storeMem(R(Idx), R(T0)));
  branchIfEqImm(A, Idx, unsigned(FfiIndex::Read), "sys_read");
  branchIfEqImm(A, Idx, unsigned(FfiIndex::Write), "sys_write");
  branchIfEqImm(A, Idx, unsigned(FfiIndex::GetArgCount),
                "sys_get_arg_count");
  branchIfEqImm(A, Idx, unsigned(FfiIndex::GetArgLength),
                "sys_get_arg_length");
  branchIfEqImm(A, Idx, unsigned(FfiIndex::GetArg), "sys_get_arg");
  branchIfEqImm(A, Idx, unsigned(FfiIndex::OpenIn), "sys_open");
  branchIfEqImm(A, Idx, unsigned(FfiIndex::OpenOut), "sys_open");
  branchIfEqImm(A, Idx, unsigned(FfiIndex::Close), "sys_close");
  branchIfEqImm(A, Idx, unsigned(FfiIndex::Exit), "sys_exit");
  A.emitRet(); // unknown index: no effect

  emitRead(A, L);
  emitWrite(A, L);
  emitGetArgCount(A, L);
  emitGetArgLength(A);
  emitGetArg(A);
  emitFindArg(A, L);
  emitOpenClose(A);
  emitExit(A, L);

  Result<assembler::Assembled> Out = A.assemble(L.SyscallCodeBase);
  if (!Out)
    return Out;
  if (Out->Bytes.size() > L.Params.SyscallCodeCap)
    return Error("system-call code exceeds its region capacity");
  return Out;
}

Result<assembler::Assembled>
silver::sys::buildStartupProgram(const MemoryLayout &L) {
  Assembler A;
  A.label("_start");
  A.emitLi(abi::MemStartReg, L.HeapBase);
  A.emitLi(abi::MemEndReg, L.HeapEnd);
  A.emitLi(abi::FfiTableReg, L.SyscallCodeBase);
  A.emitLi(abi::LayoutReg, L.DescriptorBase);
  A.emitLi(abi::TmpReg, L.CodeBase);
  A.emit(Instruction::jump(Func::Snd, abi::TmpReg, R(abi::TmpReg)));

  Result<assembler::Assembled> Out = A.assemble(L.StartupBase);
  if (!Out)
    return Out;
  if (Out->Bytes.size() > L.Params.StartupCap)
    return Error("startup code exceeds its region capacity");
  return Out;
}
