//===- isa/jit/JitInternal.h - Shared JIT internals ------------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Structures shared between the block compiler (JitCompiler.cpp) and
/// the dispatcher/backend (JitBackend.cpp).  Internal to the JIT.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_ISA_JIT_JITINTERNAL_H
#define SILVER_ISA_JIT_JITINTERNAL_H

#include "isa/DecodeCache.h"
#include "isa/MachineState.h"
#include "isa/jit/Emitter.h"
#include "isa/jit/Jit.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace silver {
namespace isa {
namespace jit {

/// The register convention of translated code.  The Silver register file
/// and flags live in memory (in-order commit: fully updated between
/// instructions), so every side exit is interpreter-resumable:
///
///   r15  JitFrame*          r13  Silver register file base (Word*)
///   r14  Silver memory base rbp  page-state table base (one byte/page)
///   rbx  steps-left budget  rax/rcx/rdx  scratch
///
/// The frame is the only calling convention between the dispatcher and
/// translated code; all fields are read/written by emitted instructions
/// at fixed offsets (static_asserts below pin the layout).
struct JitFrame {
  Word *Regs = nullptr;
  uint8_t *Mem = nullptr;
  /// MachineState::PageFlags of the state being run.
  uint8_t *PageFlags = nullptr;
  uint64_t StepsLeft = 0;
  uint32_t Pc = 0;
  uint32_t ExitKind = 0;
  uint8_t Carry = 0;
  uint8_t Overflow = 0;
  /// Snapshot of fault::InvertAddCarry, re-read on every native entry so
  /// the fuzzing self-check's injected mutation reaches translated Add.
  uint8_t InvertAddCarry = 0;
};

inline constexpr int32_t FrameRegs = 0;
inline constexpr int32_t FrameMem = 8;
inline constexpr int32_t FramePages = 16;
inline constexpr int32_t FrameSteps = 24;
inline constexpr int32_t FramePc = 32;
inline constexpr int32_t FrameExit = 36;
inline constexpr int32_t FrameCarry = 40;
inline constexpr int32_t FrameOvf = 41;
inline constexpr int32_t FrameInvert = 42;

static_assert(offsetof(JitFrame, Regs) == FrameRegs, "frame layout");
static_assert(offsetof(JitFrame, Mem) == FrameMem, "frame layout");
static_assert(offsetof(JitFrame, PageFlags) == FramePages, "frame layout");
static_assert(offsetof(JitFrame, StepsLeft) == FrameSteps, "frame layout");
static_assert(offsetof(JitFrame, Pc) == FramePc, "frame layout");
static_assert(offsetof(JitFrame, ExitKind) == FrameExit, "frame layout");
static_assert(offsetof(JitFrame, Carry) == FrameCarry, "frame layout");
static_assert(offsetof(JitFrame, Overflow) == FrameOvf, "frame layout");
static_assert(offsetof(JitFrame, InvertAddCarry) == FrameInvert,
              "frame layout");

/// JitFrame::ExitKind values: the ExitKind an exit stub stores.
inline constexpr uint32_t ExitChain = uint32_t(ExitKind::Chain);
/// Interpret at least one step at Frame.Pc.  No effect of that
/// instruction has happened; its budget charge was refunded.
inline constexpr uint32_t ExitDeopt = uint32_t(ExitKind::Deopt);
inline constexpr uint32_t ExitBudget = uint32_t(ExitKind::Budget);
inline constexpr uint32_t ExitComputed = uint32_t(ExitKind::Computed);

/// A compiled block as emitted (position independent except for the
/// recorded fixups, which the backend resolves against arena addresses).
struct CompiledCode {
  std::vector<uint8_t> Bytes;
  /// Offsets of rel32 fields that must resolve to the common exit stub.
  std::vector<size_t> ExitFixups;
  /// Block-to-block chain slots: a 5-byte `jmp rel32` at Off, initially
  /// bouncing through an in-block stub that exits with ExitChain; the
  /// backend re-patches it to TargetPc's entry once that block exists.
  struct ChainSlot {
    size_t Off;
    Word TargetPc;
  };
  std::vector<ChainSlot> Chains;
  /// Offset of the invalidation stub.  To invalidate an installed block
  /// the backend overwrites its entry with `jmp rel32` to this stub
  /// (the entry's 7-byte budget compare guarantees room), so stale
  /// incoming chains bounce back to the dispatcher.
  size_t InvalidStubOff = 0;
  unsigned Instrs = 0;
  /// Source bytes covered: [FirstByte, LastByte], inclusive.
  Word FirstByte = 0;
  Word LastByte = 0;
};

/// Compiles the block entered at \p Entry.  Returns false with \p Why
/// set when the block is refused.  \p HasGuardPc/\p GuardPc carry the
/// active stop PC: no block is compiled at it, none crosses
/// it, and no chain slot targets it, so the dispatcher always observes
/// the boundary.  The caller guarantees Entry holds a decodable,
/// non-self-jump instruction and that memory is word-addressable.
bool compileBlock(const MachineState &State, Word Entry, bool HasGuardPc,
                  Word GuardPc, CompiledCode &Out, RefuseReason &Why);

/// Emits the two runtime thunks into \p Em:
///  - enter (at \p EnterOff), C-callable as void(JitFrame*, const void*):
///    saves callee-saved registers, loads the convention from the frame,
///    and jumps to the block code in the second argument;
///  - common exit (at \p ExitOff): stores eax as Frame.Pc and rbx as
///    Frame.StepsLeft, restores registers, and returns.
void emitRuntimeThunks(Emitter &Em, size_t &EnterOff, size_t &ExitOff);

} // namespace jit
} // namespace isa
} // namespace silver

#endif // SILVER_ISA_JIT_JITINTERNAL_H
