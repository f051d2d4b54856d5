//===- cml/CodeGen.h - Flat IR to Silver machine code -----------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Code generation from the Flat IR to Silver assembly.  Every Flat
/// variable lives in a stack-frame slot; expressions evaluate through a
/// small set of scratch registers (r5-r9), so values are never live in a
/// register across a call — which makes the FFI/runtime clobber set
/// (sys/Syscalls.h) trivially safe.  Tail calls pop the frame and jump,
/// giving proper TCO.
///
/// Emitted program shape (assembled at the image's CodeBase):
///   entry stub (sets up heap/stack registers, calls cml_main, exits 0)
///   runtime routines and their data (cml/Runtime.h)
///   one block per Flat function (label fn_<id>) and cml_main
///   globals table and interned string blocks
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_CML_CODEGEN_H
#define SILVER_CML_CODEGEN_H

#include "asm/Assembler.h"
#include "cml/Flat.h"
#include "support/Result.h"

namespace silver {
namespace cml {

/// Bytes reserved between the stack limit check and the heap limit so
/// that the frame-less runtime routines can always push their small
/// frames.
inline constexpr uint32_t StackGuardBytes = 1024;

/// Emits the entry stub and the runtime: the start of every program.
void generateStart(assembler::Assembler &A);

/// Emits one block per function in Prog.Funs (label fn_<id>).
void generateFunctions(const FlatProgram &Prog, assembler::Assembler &A);

/// Emits cml_main, the globals table and the interned strings: the end
/// of every program.
void generateMainAndData(const FlatProgram &Prog, assembler::Assembler &A);

/// Emits the whole program into \p A: the three parts above, in image
/// order.  The caller assembles the result at the image's CodeBase.
Result<void> generateProgram(const FlatProgram &Prog,
                             assembler::Assembler &A);

} // namespace cml
} // namespace silver

#endif // SILVER_CML_CODEGEN_H
