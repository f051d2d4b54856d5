//===- sys/Syscalls.h - Bare-metal system calls for Silver -----*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-written Silver machine code implementing the basis FFI calls
/// against the bare-metal memory layout (paper §6), plus the startup code
/// that establishes CakeML's initial-state assumptions (the Next^k prefix
/// of theorem (5)).
///
/// Calling convention for compiled code invoking an FFI:
///   r5 = FFI index (BasisFfi::callNames() order)
///   r6 = conf pointer, r7 = conf length
///   r8 = bytes pointer, r9 = bytes length
///   r61 (LinkReg) = return address; entry point = Layout.SyscallCodeBase.
///
/// The syscall code may clobber r5-r9, r56, r57, r62, r63 and the flags;
/// every other register and all memory outside the FFI regions and the
/// byte array is preserved.  That clobber set is exactly what the paper's
/// interference oracle is allowed to touch, and the machine layer's
/// interference checker verifies it (theorem (13) analogue).
///
/// Realised calls (paper §2.4: standard streams and the command line as
/// in-memory devices): read (stdin only), write (stdout/stderr via the
/// output buffer + Interrupt), get_arg_count / get_arg_length / get_arg
/// (from the command-line region), exit (records the code and halts).
/// open_in/open_out/close fail with status 1 — there are no named files
/// on bare metal, matching the basis model's behaviour for an empty
/// filesystem.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_SYS_SYSCALLS_H
#define SILVER_SYS_SYSCALLS_H

#include "asm/Assembler.h"
#include "ffi/BasisFfi.h"
#include "isa/MachineState.h"
#include "sys/Layout.h"

namespace silver {
namespace sys {

using ffi::FfiIndex;

/// Assembles the system-call code for \p Layout.  The entry point
/// (label "ffi_dispatch") is at Layout.SyscallCodeBase.  Fails when the
/// code exceeds the layout's capacity.
Result<assembler::Assembled> buildSyscallProgram(const MemoryLayout &Layout);

/// Assembles the startup code: sets the CakeML info registers r1-r4 and
/// jumps to the program at Layout.CodeBase.
Result<assembler::Assembled> buildStartupProgram(const MemoryLayout &Layout);

/// Registers the syscall code is allowed to clobber (plus the flags).
const std::vector<unsigned> &syscallClobberedRegs();

/// Appends the FFI call a machine makes on entering the syscall code to
/// \p Trace: the ffi::ioEvent of the index, conf and byte array that
/// \p Regs (r5-r9) name in \p Memory.  Arrays are clamped to memory; an
/// exit call records nothing.  The Isa, Rtl and Verilog levels record
/// their trace with this.
void recordFfiCall(ffi::IoTrace &Trace,
                   const std::array<Word, isa::NumRegs> &Regs,
                   const isa::MachineState &Memory);

} // namespace sys
} // namespace silver

#endif // SILVER_SYS_SYSCALLS_H
