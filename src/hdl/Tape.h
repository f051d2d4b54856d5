//===- hdl/Tape.h - Lowering a module to a tape -----------------*- C++ -*-===//
//
// Part of SilverStack, a C++ reproduction of "Verified Compilation on a
// Verified Processor" (PLDI 2019).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one lowering of a type-checked module of the Verilog subset: a
/// flat three-address tape over a slot array, the reference semantics
/// (Semantics.h) unrolled at compile time.  Both whole-module simulators
/// run it: FastSim interprets it (FastSim.h) and the C++ generator prints
/// it, one statement per instruction (compile/Codegen.h).
///  - Every expression node is one instruction.  The named slots (ports,
///    then decls) come first, so slot handles follow the CompiledLayout;
///    constants, latches, shadows, flags and temporaries follow them.
///  - An `if`, and a `?:` whose arms compute, is a forward jump, so
///    evaluation is lazy as in the reference.
///  - A process keeps its blocking writes in shadow slots, copied in from
///    the cycle-start state and committed after every process ran, when
///    a later process could read them or when one of its memory reads can
///    fail the cycle.  Otherwise (the single-process core) it writes
///    through.
///  - Non-blocking and memory writes fill latch slots that a commit
///    section at the end of the tape applies in program order.
/// A memory read whose index is wider than log2 of the depth is checked
/// and fails the cycle before any commit, as in the reference; a memory
/// write with such an index is checked at its commit.  Any other access
/// is in range by its width and unchecked.
///
//===----------------------------------------------------------------------===//

#ifndef SILVER_HDL_TAPE_H
#define SILVER_HDL_TAPE_H

#include "hdl/Verilog.h"
#include "support/Result.h"

#include <map>
#include <string>
#include <utility>
#include <vector>

namespace silver {
namespace hdl {

/// Where a lowered module keeps its state: the named slots and the
/// memories.  A slot handle means the same variable on every backend.
struct CompiledLayout {
  std::map<std::string, int> ScalarSlots; ///< bool/vec name -> slot
  std::map<std::string, int> MemSlots;    ///< memory name -> memory id
  std::vector<unsigned> SlotWidths;       ///< per named slot; 0 = bool
  std::vector<unsigned> MemWidths;        ///< per memory id
  std::vector<size_t> MemDepths;          ///< per memory id
  std::vector<std::string> MemNames;      ///< per memory id
  /// Input ports in declaration order: (name, slot).  The stepDense
  /// frame order.
  std::vector<std::pair<std::string, int>> InputSlots;
};

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
  MemRead,    ///< S[D] = memory B at S[A]; in range by the index width
  MemReadChecked, ///< MemRead; out of range fails the cycle
  JumpIfZero, ///< if S[A] == 0, continue at instruction D
  Jump,       ///< continue at instruction D
  Latch,      ///< S[D] = S[A]; S[D + 1] = 1
  MemLatch,   ///< S[D] = S[A]; S[D + 1] = S[B]; S[D + 2] = 1
  Commit,     ///< if S[A + 1]: S[D] = S[A]; S[A + 1] = 0
  MemCommit,  ///< if S[A + 2]: memory B at S[A] = S[A + 1]; S[A + 2] = 0;
              ///< in range by the index width
  MemCommitChecked, ///< MemCommit; out of range fails the cycle
  Halt,
};

struct Instr {
  Op Code = Op::Halt;
  uint8_t Sh = 0;
  uint32_t D = 0, A = 0, B = 0;
  uint64_t Imm = 0;
};

/// A lowered module.
struct Tape {
  CompiledLayout Layout;
  std::vector<Instr> Code;
  /// The initial value of every slot: zero, but for the constants.
  std::vector<uint64_t> Slots;
  /// Per slot: whether it holds a constant (never written).
  std::vector<bool> Const;
  /// The latch flags, which a cycle that fails part-way must clear.
  std::vector<uint32_t> Flags;
};

/// How a cycle that failed on memory \p Mem is reported, by both
/// backends: 2 * Mem + 1 for a read out of range (nothing committed),
/// 2 * Mem + 2 for a write out of range.  Zero means the cycle succeeded.
inline int memFault(uint32_t Mem, bool Read) {
  return static_cast<int>(2 * Mem + (Read ? 1 : 2));
}

/// Type-checks \p M and lowers it; fails when typeCheck fails.
Result<Tape> lowerModule(const VModule &M);

} // namespace hdl
} // namespace silver

#endif // SILVER_HDL_TAPE_H
